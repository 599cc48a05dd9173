// Workload library: the synthetic kernels every experiment runs.  Each
// kernel is a Workload — an assembled Program, a memory-setup function,
// and (where they are analytically computable) the *expected* event
// counts.  Expected counts are what the paper's `calibrate` utility and
// micro-benchmark methodology rely on: "test programs can take the form
// of micro-benchmarks for which the expected counts are known."
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "sim/machine.h"
#include "sim/program.h"

namespace papirepro::sim {

/// Analytically-known event counts for a kernel (only the ones that are
/// exact by construction are filled in).
struct ExpectedCounts {
  std::optional<std::uint64_t> fp_add;   ///< FP add/sub instructions
  std::optional<std::uint64_t> fp_mul;   ///< FP multiply instructions
  std::optional<std::uint64_t> fp_fma;   ///< fused multiply-adds
  std::optional<std::uint64_t> fp_cvt;   ///< precision converts
  std::optional<std::uint64_t> flops;    ///< normalized FLOPs (FMA = 2)
  std::optional<std::uint64_t> loads;
  std::optional<std::uint64_t> stores;
  std::optional<std::uint64_t> branches; ///< conditional branches
};

/// A named data object of a workload (an array the kernel touches);
/// feeds the PAPI 3 "location of memory used by an object" extension.
struct MemoryRegion {
  std::string name;
  std::uint64_t base = 0;
  std::uint64_t bytes = 0;

  bool contains(std::uint64_t addr) const noexcept {
    return addr >= base && addr < base + bytes;
  }
};

struct Workload {
  std::string name;
  Program program;
  /// Initializes machine memory/registers before the run; may be empty.
  std::function<void(Machine&)> setup;
  ExpectedCounts expected;
  /// The kernel's named data objects (arrays), for per-object memory
  /// profiling.
  std::vector<MemoryRegion> regions;
};

/// y[i] += a * x[i]; one FMA per element.
Workload make_saxpy(std::int64_t n);

/// Dense n x n matrix multiply, naive ijk order (strided B accesses give
/// the poor cache behaviour the blocked variant fixes).
Workload make_matmul(std::int64_t n);

/// Cache-blocked n x n matrix multiply.  Same n^3 FMAs, far fewer L1/L2
/// misses — the canonical PAPI tuning demo.  n must be a multiple of
/// `block`.
Workload make_matmul_blocked(std::int64_t n, std::int64_t block);

/// STREAM triad a[i] = b[i] + s * c[i] with separate mul + add (no FMA).
Workload make_stream_triad(std::int64_t n);

/// Random-permutation pointer chase: `iterations` dependent loads over
/// `nodes` nodes spread across memory.  High D-cache/D-TLB miss rates;
/// the single load instruction makes profiling attribution unambiguous.
Workload make_pointer_chase(std::int64_t nodes, std::int64_t iterations,
                            std::uint64_t seed);

/// Data-dependent branches over random 0/1 data: ~50% taken, high
/// mispredict rate.
Workload make_branchy(std::int64_t n, std::uint64_t seed);

/// Mixed-precision loop: each iteration does one FP add and one
/// double->single convert ("rounding instruction").  Reproduces the
/// POWER3 FP-instruction discrepancy when run on sim-power3.
Workload make_fcvt_mixed(std::int64_t n);

/// Multi-phase program for the perfometer trace (Fig. 2): alternating
/// FP-burst, memory-bound, and branchy phases, `reps` rounds of `inner`
/// iterations each.
Workload make_multiphase(std::int64_t reps, std::int64_t inner);

/// A tiny leaf function called `calls` times from a loop; `body_fmas`
/// FMAs per call.  The instrumentation-overhead workload: probing every
/// entry/exit of a small routine is exactly the case Section 4 calls
/// "excessive" for direct counting.
Workload make_tight_call(std::int64_t calls, int body_fmas);

/// Pure empty counting loop (baseline for overhead measurements).
Workload make_empty_loop(std::int64_t n);

/// 5-point 2D Jacobi stencil sweep over an n x n grid (interior points):
/// out[i][j] = 0.25 * (in[i-1][j] + in[i+1][j] + in[i][j-1] + in[i][j+1]).
/// Classic HPC memory pattern: three rows live in cache at once.
Workload make_stencil2d(std::int64_t n, std::int64_t sweeps = 1);

/// Sum reduction over n elements (sequential adds into one register).
Workload make_reduction(std::int64_t n);

/// GUPS-style random access: `updates` read-modify-writes at pseudo-
/// random (LCG-generated) locations in a `table_words`-word table.
/// Maximal TLB/cache pressure with analytically exact op counts.
Workload make_random_access(std::int64_t table_words,
                            std::int64_t updates);

/// One load per page, cycling `passes` times over `pages` consecutive
/// pages (sim::kPageSize apart).  A data-TLB oracle: on an LRU TLB of E
/// entries every load misses when pages > E, and only the first pass
/// misses when pages <= E.
Workload make_page_walk(std::int64_t pages, std::int64_t passes);

}  // namespace papirepro::sim
