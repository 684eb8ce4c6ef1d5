// Process-wide count of heap allocations made through operator new (every
// form is replaced as a set in alloc_counter.cc, so none escapes the count).

#ifndef PERFBENCH_ALLOC_COUNTER_H_
#define PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

int64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNTER_H_
