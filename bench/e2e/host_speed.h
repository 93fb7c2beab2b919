// How fast the host runs right now, read from a fixed mix of work that is
// part of the benchmark, never of the code under test (README.md, "Noise").
#pragma once

namespace lmbench {

/// Runs the reference mix once, about 0.5 ms: integer hashing in L1,
/// building and freeing a small std::map, dependent loads over a 2 MiB
/// buffer, and starting a thread for 20 condvar round trips. Returns how
/// much slower than on the reference host it ran: the geometric mean of
/// each part's time over its reference-host time, so 1.2 means 20% slower.
///
/// Each part runs twice and only the second run is timed, so what the code
/// under test left in the caches and the allocator barely shows.
double read_host_slowdown();

}  // namespace lmbench
