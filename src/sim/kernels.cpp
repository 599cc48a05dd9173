#include "sim/kernels.h"

#include <cassert>
#include <numeric>
#include <vector>

#include "common/rng.h"

namespace papirepro::sim {
namespace {

// Data-segment bases, far enough apart that kernels never alias.
constexpr std::int64_t kABase = 0x10000000;
constexpr std::int64_t kBBase = 0x14000000;
constexpr std::int64_t kCBase = 0x18000000;
constexpr std::int64_t kXBase = 0x20000000;
constexpr std::int64_t kYBase = 0x24000000;
constexpr std::int64_t kZBase = 0x28000000;
constexpr std::int64_t kDataBase = 0x30000000;

}  // namespace

Workload make_saxpy(std::int64_t n) {
  assert(n > 0);
  ProgramBuilder b;
  b.begin_function("main");
  b.set_line(1);
  b.li(4, n);
  b.li(1, 0);
  b.li(10, kXBase);
  b.li(11, kYBase);
  b.fli(0, 2.5);
  auto loop = b.new_label();
  b.bind(loop);
  b.set_line(2);
  b.fload(1, 10, 0);
  b.fload(2, 11, 0);
  b.fmadd(2, 0, 1);  // y += a * x
  b.fstore(2, 11, 0);
  b.set_line(3);
  b.addi(10, 10, 8);
  b.addi(11, 11, 8);
  b.addi(1, 1, 1);
  b.blt(1, 4, loop);
  b.halt();
  b.end_function();

  Workload w;
  w.name = "saxpy";
  w.program = std::move(b).build();
  w.setup = [n](Machine& m) {
    for (std::int64_t i = 0; i < n; ++i) {
      m.memory().write_f64(kXBase + 8 * i, 0.5 * static_cast<double>(i));
      m.memory().write_f64(kYBase + 8 * i, 1.0);
    }
  };
  const auto un = static_cast<std::uint64_t>(n);
  w.expected = {.fp_fma = un,
                .flops = 2 * un,
                .loads = 2 * un,
                .stores = un,
                .branches = un};
  w.regions = {{"x", static_cast<std::uint64_t>(kXBase), 8 * un},
               {"y", static_cast<std::uint64_t>(kYBase), 8 * un}};
  return w;
}

Workload make_matmul(std::int64_t n) {
  assert(n > 0);
  ProgramBuilder b;
  const std::int64_t row_bytes = 8 * n;
  b.begin_function("main");
  b.set_line(1);
  b.li(6, n);
  b.li(1, 0);           // i
  b.li(16, kABase);     // &A[i][0]
  b.li(17, kCBase);     // &C[i][0]
  b.li(18, kBBase);     // &B[0][j]
  auto iloop = b.new_label();
  b.bind(iloop);
  b.li(2, 0);           // j
  b.mov(12, 17);        // &C[i][j]
  auto jloop = b.new_label();
  b.bind(jloop);
  b.set_line(2);
  b.fli(3, 0.0);        // acc
  b.li(3, 0);           // k
  b.mov(10, 16);        // &A[i][k]
  b.mov(11, 18);        // &B[k][j]
  auto kloop = b.new_label();
  b.bind(kloop);
  b.set_line(3);
  b.fload(1, 10, 0);
  b.fload(2, 11, 0);
  b.fmadd(3, 1, 2);
  b.addi(10, 10, 8);
  b.addi(11, 11, row_bytes);
  b.addi(3, 3, 1);
  b.blt(3, 6, kloop);
  b.set_line(4);
  b.fstore(3, 12, 0);
  b.addi(12, 12, 8);
  b.addi(18, 18, 8);
  b.addi(2, 2, 1);
  b.blt(2, 6, jloop);
  b.addi(16, 16, row_bytes);
  b.addi(17, 17, row_bytes);
  b.li(18, kBBase);
  b.addi(1, 1, 1);
  b.blt(1, 6, iloop);
  b.halt();
  b.end_function();

  Workload w;
  w.name = "matmul_naive";
  w.program = std::move(b).build();
  w.setup = [n](Machine& m) {
    for (std::int64_t i = 0; i < n * n; ++i) {
      m.memory().write_f64(kABase + 8 * i,
                           1.0 + static_cast<double>(i % 7));
      m.memory().write_f64(kBBase + 8 * i,
                           2.0 - static_cast<double>(i % 5));
    }
  };
  const auto un = static_cast<std::uint64_t>(n);
  w.expected = {.fp_fma = un * un * un,
                .flops = 2 * un * un * un,
                .loads = 2 * un * un * un,
                .stores = un * un};
  w.regions = {{"A", static_cast<std::uint64_t>(kABase), 8 * un * un},
               {"B", static_cast<std::uint64_t>(kBBase), 8 * un * un},
               {"C", static_cast<std::uint64_t>(kCBase), 8 * un * un}};
  return w;
}

Workload make_matmul_blocked(std::int64_t n, std::int64_t block) {
  assert(n > 0 && block > 0 && n % block == 0);
  const std::int64_t row_bytes = 8 * n;
  ProgramBuilder b;
  b.begin_function("main");
  b.set_line(1);
  b.li(6, n);
  b.li(7, block);
  b.li(1, 0);  // jj
  auto jjloop = b.new_label();
  b.bind(jjloop);
  b.li(2, 0);  // kk
  auto kkloop = b.new_label();
  b.bind(kkloop);
  // r13 = &B[kk][jj],  r15 = &A[0][kk],  r16 = &C[0][jj]
  b.mul(22, 2, 6);
  b.add(22, 22, 1);
  b.shli(22, 22, 3);
  b.li(23, kBBase);
  b.add(13, 23, 22);
  b.shli(22, 2, 3);
  b.li(23, kABase);
  b.add(15, 23, 22);
  b.shli(22, 1, 3);
  b.li(23, kCBase);
  b.add(16, 23, 22);
  b.li(3, 0);  // i
  auto iloop = b.new_label();
  b.bind(iloop);
  b.mov(14, 16);  // &C[i][jj+j]
  b.mov(20, 13);  // &B[kk][jj+j] column base for current j
  b.li(5, 0);     // j (0..block)
  auto jloop = b.new_label();
  b.bind(jloop);
  b.set_line(2);
  b.fload(3, 14, 0);  // acc = C[i][j]
  b.mov(10, 15);      // &A[i][kk+k]
  b.mov(11, 20);      // &B[kk+k][j]
  b.li(4, 0);         // k (0..block)
  auto kloop = b.new_label();
  b.bind(kloop);
  b.set_line(3);
  b.fload(1, 10, 0);
  b.fload(2, 11, 0);
  b.fmadd(3, 1, 2);
  b.addi(10, 10, 8);
  b.addi(11, 11, row_bytes);
  b.addi(4, 4, 1);
  b.blt(4, 7, kloop);
  b.set_line(4);
  b.fstore(3, 14, 0);
  b.addi(14, 14, 8);
  b.addi(20, 20, 8);
  b.addi(5, 5, 1);
  b.blt(5, 7, jloop);
  b.addi(15, 15, row_bytes);
  b.addi(16, 16, row_bytes);
  b.addi(3, 3, 1);
  b.blt(3, 6, iloop);
  b.addi(2, 2, block);
  b.blt(2, 6, kkloop);
  b.addi(1, 1, block);
  b.blt(1, 6, jjloop);
  b.halt();
  b.end_function();

  Workload w;
  w.name = "matmul_blocked";
  w.program = std::move(b).build();
  w.setup = [n](Machine& m) {
    for (std::int64_t i = 0; i < n * n; ++i) {
      m.memory().write_f64(kABase + 8 * i,
                           1.0 + static_cast<double>(i % 7));
      m.memory().write_f64(kBBase + 8 * i,
                           2.0 - static_cast<double>(i % 5));
    }
  };
  const auto un = static_cast<std::uint64_t>(n);
  const auto ub = static_cast<std::uint64_t>(block);
  w.expected = {.fp_fma = un * un * un,
                .flops = 2 * un * un * un,
                .loads = 2 * un * un * un + un * un * (un / ub),
                .stores = un * un * (un / ub)};
  w.regions = {{"A", static_cast<std::uint64_t>(kABase), 8 * un * un},
               {"B", static_cast<std::uint64_t>(kBBase), 8 * un * un},
               {"C", static_cast<std::uint64_t>(kCBase), 8 * un * un}};
  return w;
}

Workload make_stream_triad(std::int64_t n) {
  assert(n > 0);
  ProgramBuilder b;
  b.begin_function("main");
  b.set_line(1);
  b.li(4, n);
  b.li(1, 0);
  b.li(10, kXBase);  // a
  b.li(11, kYBase);  // b
  b.li(12, kZBase);  // c
  b.fli(0, 3.0);     // s
  auto loop = b.new_label();
  b.bind(loop);
  b.set_line(2);
  b.fload(1, 11, 0);
  b.fload(2, 12, 0);
  b.fmul(3, 2, 0);
  b.fadd(3, 3, 1);
  b.fstore(3, 10, 0);
  b.addi(10, 10, 8);
  b.addi(11, 11, 8);
  b.addi(12, 12, 8);
  b.addi(1, 1, 1);
  b.blt(1, 4, loop);
  b.halt();
  b.end_function();

  Workload w;
  w.name = "stream_triad";
  w.program = std::move(b).build();
  w.setup = [n](Machine& m) {
    for (std::int64_t i = 0; i < n; ++i) {
      m.memory().write_f64(kYBase + 8 * i, static_cast<double>(i));
      m.memory().write_f64(kZBase + 8 * i, 1.0 / (1.0 + i));
    }
  };
  const auto un = static_cast<std::uint64_t>(n);
  w.expected = {.fp_add = un,
                .fp_mul = un,
                .flops = 2 * un,
                .loads = 2 * un,
                .stores = un,
                .branches = un};
  w.regions = {{"a", static_cast<std::uint64_t>(kXBase), 8 * un},
               {"b", static_cast<std::uint64_t>(kYBase), 8 * un},
               {"c", static_cast<std::uint64_t>(kZBase), 8 * un}};
  return w;
}

Workload make_pointer_chase(std::int64_t nodes, std::int64_t iterations,
                            std::uint64_t seed) {
  assert(nodes > 1 && iterations > 0);
  constexpr std::int64_t kStride = 136;  // prime-ish spacing, 8-aligned
  // Build a random single-cycle permutation (Sattolo's algorithm) so the
  // chase visits every node before repeating.
  std::vector<std::int64_t> perm(static_cast<std::size_t>(nodes));
  std::iota(perm.begin(), perm.end(), 0);
  Xoshiro256 rng(seed);
  for (std::int64_t i = nodes - 1; i > 0; --i) {
    const auto j = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(i)));
    std::swap(perm[i], perm[j]);
  }
  auto addr_of = [](std::int64_t node) {
    return kDataBase + node * kStride;
  };

  ProgramBuilder b;
  b.begin_function("main");
  b.set_line(1);
  b.li(4, iterations);
  b.li(2, 0);
  b.li(1, addr_of(perm[0]));
  auto loop = b.new_label();
  b.bind(loop);
  b.set_line(2);
  b.load(1, 1, 0);
  b.set_line(3);
  b.addi(2, 2, 1);
  b.set_line(4);
  b.blt(2, 4, loop);
  b.halt();
  b.end_function();

  Workload w;
  w.name = "pointer_chase";
  w.program = std::move(b).build();
  w.setup = [perm, addr_of](Machine& m) {
    for (std::size_t i = 0; i < perm.size(); ++i) {
      const std::int64_t next = perm[(i + 1) % perm.size()];
      m.memory().write_i64(static_cast<std::uint64_t>(addr_of(perm[i])),
                           addr_of(next));
    }
  };
  const auto ui = static_cast<std::uint64_t>(iterations);
  w.expected = {.loads = ui, .branches = ui};
  w.regions = {{"nodes", static_cast<std::uint64_t>(kDataBase),
                static_cast<std::uint64_t>(nodes * kStride)}};
  return w;
}

Workload make_branchy(std::int64_t n, std::uint64_t seed) {
  assert(n > 0);
  ProgramBuilder b;
  b.begin_function("main");
  b.set_line(1);
  b.li(4, n);
  b.li(1, 0);
  b.li(10, kDataBase);
  b.li(0, 0);  // r0 kept zero by convention in this kernel
  b.li(6, 0);  // accumulator
  auto loop = b.new_label();
  auto skip = b.new_label();
  b.bind(loop);
  b.set_line(2);
  b.load(5, 10, 0);
  b.beq(5, 0, skip);
  b.set_line(3);
  b.addi(6, 6, 1);
  b.bind(skip);
  b.addi(10, 10, 8);
  b.addi(1, 1, 1);
  b.blt(1, 4, loop);
  b.halt();
  b.end_function();

  Workload w;
  w.name = "branchy";
  w.program = std::move(b).build();
  w.setup = [n, seed](Machine& m) {
    Xoshiro256 rng(seed);
    for (std::int64_t i = 0; i < n; ++i) {
      m.memory().write_i64(static_cast<std::uint64_t>(kDataBase + 8 * i),
                           static_cast<std::int64_t>(rng.next() & 1));
    }
  };
  const auto un = static_cast<std::uint64_t>(n);
  w.expected = {.loads = un, .branches = 2 * un};
  w.regions = {{"data", static_cast<std::uint64_t>(kDataBase), 8 * un}};
  return w;
}

Workload make_fcvt_mixed(std::int64_t n) {
  assert(n > 0);
  ProgramBuilder b;
  b.begin_function("main");
  b.set_line(1);
  b.li(4, n);
  b.li(1, 0);
  b.li(10, kXBase);
  b.li(11, kYBase);
  b.fli(0, 0.0);  // double-precision accumulator
  auto loop = b.new_label();
  b.bind(loop);
  b.set_line(2);
  b.fload(1, 10, 0);
  b.fadd(0, 0, 1);
  // Store in single precision: the convert is the "extra rounding
  // instruction" the POWER3 counted as a floating point instruction.
  b.fcvt_ds(5, 0);
  b.fstore(5, 11, 0);
  b.addi(10, 10, 8);
  b.addi(11, 11, 8);
  b.addi(1, 1, 1);
  b.blt(1, 4, loop);
  b.halt();
  b.end_function();

  Workload w;
  w.name = "fcvt_mixed";
  w.program = std::move(b).build();
  w.setup = [n](Machine& m) {
    for (std::int64_t i = 0; i < n; ++i) {
      m.memory().write_f64(kXBase + 8 * i, 0.125 * static_cast<double>(i));
    }
  };
  const auto un = static_cast<std::uint64_t>(n);
  w.expected = {.fp_add = un,
                .fp_cvt = un,
                .flops = un,
                .loads = un,
                .stores = un,
                .branches = un};
  w.regions = {{"x", static_cast<std::uint64_t>(kXBase), 8 * un},
               {"y", static_cast<std::uint64_t>(kYBase), 8 * un}};
  return w;
}

Workload make_multiphase(std::int64_t reps, std::int64_t inner) {
  assert(reps > 0 && inner > 0);
  ProgramBuilder b;

  // Phase 1: register-resident FP burst — 4 FMAs per iteration.
  b.begin_function("phase_fp");
  b.set_line(10);
  b.li(1, 0);
  b.li(4, inner);
  auto fp_loop = b.new_label();
  b.bind(fp_loop);
  b.fmadd(1, 2, 3);
  b.fmadd(4, 5, 6);
  b.fmadd(7, 8, 9);
  b.fmadd(10, 11, 12);
  b.addi(1, 1, 1);
  b.blt(1, 4, fp_loop);
  b.ret();
  b.end_function();

  // Phase 2: memory-bound strided walk, no FP.
  b.begin_function("phase_mem");
  b.set_line(20);
  b.li(1, 0);
  b.li(4, inner);
  b.li(10, kDataBase);
  auto mem_loop = b.new_label();
  b.bind(mem_loop);
  b.load(5, 10, 0);
  b.load(6, 10, 4096);
  b.addi(10, 10, 64);
  b.addi(1, 1, 1);
  b.blt(1, 4, mem_loop);
  b.ret();
  b.end_function();

  // Phase 3: branchy integer work.
  b.begin_function("phase_branch");
  b.set_line(30);
  b.li(1, 0);
  b.li(4, inner);
  b.li(10, kDataBase);
  b.li(0, 0);
  auto br_loop = b.new_label();
  auto br_skip = b.new_label();
  b.bind(br_loop);
  b.load(5, 10, 0);
  b.and_(5, 5, 5);
  b.beq(5, 0, br_skip);
  b.addi(6, 6, 1);
  b.bind(br_skip);
  b.addi(10, 10, 8);
  b.addi(1, 1, 1);
  b.blt(1, 4, br_loop);
  b.ret();
  b.end_function();

  b.begin_function("main");
  b.set_line(1);
  b.li(20, 0);
  b.li(21, reps);
  auto main_loop = b.new_label();
  b.bind(main_loop);
  b.call("phase_fp");
  b.call("phase_mem");
  b.call("phase_branch");
  b.addi(20, 20, 1);
  b.blt(20, 21, main_loop);
  b.halt();
  b.end_function();

  Workload w;
  w.name = "multiphase";
  w.program = std::move(b).build();
  w.setup = [inner](Machine& m) {
    Xoshiro256 rng(42);
    for (std::int64_t i = 0; i < inner + 512; ++i) {
      m.memory().write_i64(static_cast<std::uint64_t>(kDataBase + 8 * i),
                           static_cast<std::int64_t>(rng.next() & 1));
    }
  };
  const auto total_fma =
      static_cast<std::uint64_t>(reps) * static_cast<std::uint64_t>(inner) * 4;
  w.expected = {.fp_fma = total_fma, .flops = 2 * total_fma};
  w.regions = {{"data", static_cast<std::uint64_t>(kDataBase),
                static_cast<std::uint64_t>(inner) * 64 + 8192}};
  return w;
}

Workload make_tight_call(std::int64_t calls, int body_fmas) {
  assert(calls > 0 && body_fmas >= 0);
  ProgramBuilder b;

  b.begin_function("work");
  b.set_line(10);
  for (int i = 0; i < body_fmas; ++i) {
    b.fmadd(1 + (i % 8), 9, 10);
  }
  b.ret();
  b.end_function();

  b.begin_function("main");
  b.set_line(1);
  b.li(1, 0);
  b.li(4, calls);
  auto loop = b.new_label();
  b.bind(loop);
  b.call("work");
  b.addi(1, 1, 1);
  b.blt(1, 4, loop);
  b.halt();
  b.end_function();

  Workload w;
  w.name = "tight_call";
  w.program = std::move(b).build();
  const auto total =
      static_cast<std::uint64_t>(calls) * static_cast<std::uint64_t>(body_fmas);
  w.expected = {.fp_fma = total,
                .flops = 2 * total,
                .branches = static_cast<std::uint64_t>(calls)};
  return w;
}

Workload make_empty_loop(std::int64_t n) {
  assert(n > 0);
  ProgramBuilder b;
  b.begin_function("main");
  b.set_line(1);
  b.li(1, 0);
  b.li(4, n);
  auto loop = b.new_label();
  b.bind(loop);
  b.addi(1, 1, 1);
  b.blt(1, 4, loop);
  b.halt();
  b.end_function();

  Workload w;
  w.name = "empty_loop";
  w.program = std::move(b).build();
  w.expected = {.branches = static_cast<std::uint64_t>(n)};
  return w;
}

Workload make_stencil2d(std::int64_t n, std::int64_t sweeps) {
  assert(n >= 3 && sweeps > 0);
  const std::int64_t row_bytes = 8 * n;
  ProgramBuilder b;
  b.begin_function("main");
  b.set_line(1);
  b.li(7, n - 1);      // interior bound
  b.li(20, 0);         // sweep counter
  b.li(21, sweeps);
  b.fli(0, 0.25);
  auto sweep_loop = b.new_label();
  b.bind(sweep_loop);
  b.li(1, 1);                          // i
  b.li(15, kABase + row_bytes + 8);    // &in[1][1]
  b.li(16, kBBase + row_bytes + 8);    // &out[1][1]
  auto iloop = b.new_label();
  b.bind(iloop);
  b.li(2, 1);  // j
  b.mov(10, 15);
  b.mov(11, 16);
  auto jloop = b.new_label();
  b.bind(jloop);
  b.set_line(2);
  b.fload(1, 10, -row_bytes);  // up
  b.fload(2, 10, row_bytes);   // down
  b.fload(3, 10, -8);          // left
  b.fload(4, 10, 8);           // right
  b.fadd(1, 1, 2);
  b.fadd(3, 3, 4);
  b.fadd(1, 1, 3);
  b.fmul(1, 1, 0);
  b.fstore(1, 11, 0);
  b.set_line(3);
  b.addi(10, 10, 8);
  b.addi(11, 11, 8);
  b.addi(2, 2, 1);
  b.blt(2, 7, jloop);
  b.addi(15, 15, row_bytes);
  b.addi(16, 16, row_bytes);
  b.addi(1, 1, 1);
  b.blt(1, 7, iloop);
  b.addi(20, 20, 1);
  b.blt(20, 21, sweep_loop);
  b.halt();
  b.end_function();

  Workload w;
  w.name = "stencil2d";
  w.program = std::move(b).build();
  w.setup = [n](Machine& m) {
    for (std::int64_t i = 0; i < n * n; ++i) {
      m.memory().write_f64(kABase + 8 * i,
                           static_cast<double>(i % 11) * 0.5);
    }
  };
  const auto points = static_cast<std::uint64_t>((n - 2) * (n - 2)) *
                      static_cast<std::uint64_t>(sweeps);
  w.expected = {.fp_add = 3 * points,
                .fp_mul = points,
                .flops = 4 * points,
                .loads = 4 * points,
                .stores = points};
  const auto un = static_cast<std::uint64_t>(n);
  w.regions = {{"in", static_cast<std::uint64_t>(kABase), 8 * un * un},
               {"out", static_cast<std::uint64_t>(kBBase), 8 * un * un}};
  return w;
}

Workload make_reduction(std::int64_t n) {
  assert(n > 0);
  ProgramBuilder b;
  b.begin_function("main");
  b.set_line(1);
  b.li(4, n);
  b.li(1, 0);
  b.li(10, kXBase);
  b.fli(0, 0.0);
  auto loop = b.new_label();
  b.bind(loop);
  b.set_line(2);
  b.fload(1, 10, 0);
  b.fadd(0, 0, 1);
  b.addi(10, 10, 8);
  b.addi(1, 1, 1);
  b.blt(1, 4, loop);
  b.halt();
  b.end_function();

  Workload w;
  w.name = "reduction";
  w.program = std::move(b).build();
  w.setup = [n](Machine& m) {
    for (std::int64_t i = 0; i < n; ++i) {
      m.memory().write_f64(kXBase + 8 * i, 0.5 * static_cast<double>(i));
    }
  };
  const auto un = static_cast<std::uint64_t>(n);
  w.expected = {.fp_add = un,
                .flops = un,
                .loads = un,
                .stores = 0,
                .branches = un};
  w.regions = {{"x", static_cast<std::uint64_t>(kXBase), 8 * un}};
  return w;
}

Workload make_random_access(std::int64_t table_words,
                            std::int64_t updates) {
  assert(table_words > 0 && (table_words & (table_words - 1)) == 0 &&
         "table size must be a power of two");
  assert(updates > 0);
  ProgramBuilder b;
  b.begin_function("main");
  b.set_line(1);
  b.li(4, updates);
  b.li(1, 0);
  b.li(5, 0x2545F4914F6CDD1D);            // LCG state (seed)
  b.li(3, 6364136223846793005);           // LCG multiplier
  b.li(7, (table_words - 1));              // index mask (words)
  b.li(8, kDataBase);                      // table base
  auto loop = b.new_label();
  b.bind(loop);
  b.set_line(2);
  b.mul(5, 5, 3);
  b.addi(5, 5, 1442695040888963407);
  b.shri(6, 5, 13);
  b.and_(6, 6, 7);
  b.shli(6, 6, 3);
  b.add(6, 6, 8);
  b.set_line(3);
  b.load(9, 6, 0);
  b.xor_(9, 9, 5);
  b.store(9, 6, 0);
  b.addi(1, 1, 1);
  b.blt(1, 4, loop);
  b.halt();
  b.end_function();

  Workload w;
  w.name = "random_access";
  w.program = std::move(b).build();
  // The table reads as zero until first touched: no setup needed.
  const auto uu = static_cast<std::uint64_t>(updates);
  w.expected = {.loads = uu, .stores = uu, .branches = uu};
  w.regions = {{"table", static_cast<std::uint64_t>(kDataBase),
                static_cast<std::uint64_t>(table_words) * 8}};
  return w;
}

Workload make_page_walk(std::int64_t pages, std::int64_t passes) {
  assert(pages > 0 && passes > 0);
  ProgramBuilder b;
  b.begin_function("main");
  b.set_line(1);
  b.li(4, passes);
  b.li(5, pages);
  b.li(1, 0);
  auto pass = b.new_label();
  b.bind(pass);
  b.set_line(2);
  b.li(10, kDataBase);
  b.li(2, 0);
  auto page = b.new_label();
  b.bind(page);
  b.set_line(3);
  b.load(3, 10, 0);
  b.addi(10, 10, static_cast<std::int64_t>(kPageSize));
  b.addi(2, 2, 1);
  b.blt(2, 5, page);
  b.set_line(4);
  b.addi(1, 1, 1);
  b.blt(1, 4, pass);
  b.halt();
  b.end_function();

  Workload w;
  w.name = "page_walk";
  w.program = std::move(b).build();
  // No setup: the pages are never written and read as zero.
  const auto loads = static_cast<std::uint64_t>(pages * passes);
  w.expected = {.loads = loads,
                .stores = 0,
                .branches = loads + static_cast<std::uint64_t>(passes)};
  w.regions = {{"pages", static_cast<std::uint64_t>(kDataBase),
                static_cast<std::uint64_t>(pages) * kPageSize}};
  return w;
}

}  // namespace papirepro::sim
