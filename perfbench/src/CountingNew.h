// A counting global operator new for the benchmark binary. Counting is off
// unless a traced run switches it on, so the end-to-end run pays one relaxed
// load per allocation and nothing else.
#pragma once

#include <cstdint>

namespace rapt::perfbench {

void setAllocCounting(bool on);

/// Allocations made (by any thread) while counting was on.
[[nodiscard]] std::int64_t allocCount();

}  // namespace rapt::perfbench
