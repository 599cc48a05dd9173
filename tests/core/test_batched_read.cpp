// Batched snapshot reads (Library::read_many / snapshot_all) and the
// handle table they walk.  The contract under test: one call serves
// many EventSets — the caller's running set as a full live read,
// everything else from the seqlock publication in its handle slot —
// with per-entry statuses instead of batch failures, zero heap
// allocation, and zero lock acquisitions in steady state.  The Registry
// suite races the walk against handle churn, destroys and handle reuse:
// slots outlive their sets, so a destroyed set is freed at once and a
// racing reader sees its handle as kNoEventSet or kNotRunning (suites
// are Batched* so the CI ThreadSanitizer shard picks both up).
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/eventset.h"
#include "core/library.h"
#include "test_util.h"

namespace papirepro::papi {
namespace {

using papirepro::test::AllocationGuard;
using papirepro::test::SimFixture;

/// Builds `n` two-event sets on `f`; sets [1..n) are started and
/// stopped (their finals live in the publication), set 0 is left
/// stopped for the caller to start.  Returns handles in creation order.
std::vector<int> make_sets(SimFixture& f, int n,
                           std::vector<std::array<long long, 2>>* finals) {
  std::vector<int> handles;
  for (int i = 0; i < n; ++i) {
    auto handle = f.library->create_event_set();
    EXPECT_TRUE(handle.ok());
    EventSet& set = *f.library->event_set(handle.value()).value();
    EXPECT_TRUE(set.add_preset(Preset::kTotIns).ok());
    EXPECT_TRUE(set.add_preset(Preset::kTotCyc).ok());
    handles.push_back(handle.value());
    if (i == 0) continue;
    EXPECT_TRUE(set.start().ok());
    std::array<long long, 2> v{};
    EXPECT_TRUE(set.stop(v).ok());
    if (finals != nullptr) finals->push_back(v);
  }
  return handles;
}

TEST(BatchedRead, ReadManyMatchesIndividualReads) {
  SimFixture f(sim::make_saxpy(2'000), pmu::sim_x86(),
               {.charge_costs = false});
  std::vector<std::array<long long, 2>> finals;
  const std::vector<int> handles = make_sets(f, 3, &finals);
  EventSet* sets[3];
  for (int i = 0; i < 3; ++i) {
    sets[i] = f.library->event_set(handles[i]).value();
  }
  ASSERT_TRUE(sets[0]->start().ok());
  f.machine->run();

  std::vector<long long> values(6);
  std::vector<SnapshotEntry> entries(3);
  std::size_t used = 0;
  ASSERT_TRUE(f.library->read_many(handles, values, entries, &used).ok());
  ASSERT_EQ(used, 6u);

  // Entry 0 is the caller's running set: a full live read, no flags.
  // The machine is idle between the calls, so an individual read()
  // must reproduce the batch values exactly.
  std::array<long long, 2> live{};
  ASSERT_TRUE(sets[0]->read(live).ok());
  EXPECT_EQ(entries[0].status, Error::kOk);
  EXPECT_EQ(entries[0].flags, 0u);
  EXPECT_EQ(entries[0].num_values, 2u);
  EXPECT_EQ(values[entries[0].first_value], live[0]);
  EXPECT_EQ(values[entries[0].first_value + 1], live[1]);

  // Entries 1..2 are stopped sets: served from the publication their
  // stop() refreshed, so the batch sees exactly the stop values.
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(entries[i].handle, handles[i]);
    EXPECT_EQ(entries[i].status, Error::kOk);
    EXPECT_EQ(entries[i].num_values, 2u);
    EXPECT_NE(entries[i].flags & read_flag::kPublished, 0u);
    EXPECT_EQ(values[entries[i].first_value], finals[i - 1][0]) << i;
    EXPECT_EQ(values[entries[i].first_value + 1], finals[i - 1][1]) << i;
  }
  EXPECT_TRUE(sets[0]->stop().ok());
}

TEST(BatchedRead, UnknownHandleIsPerEntryStatusNotBatchFailure) {
  SimFixture f(sim::make_saxpy(500), pmu::sim_x86(),
               {.charge_costs = false});
  std::vector<std::array<long long, 2>> finals;
  const std::vector<int> handles = make_sets(f, 2, &finals);
  const int batch[2] = {handles[1], 999'999};
  std::vector<long long> values(4);
  std::vector<SnapshotEntry> entries(2);
  ASSERT_TRUE(f.library->read_many(batch, values, entries).ok());
  EXPECT_EQ(entries[0].status, Error::kOk);
  EXPECT_EQ(entries[0].num_values, 2u);
  EXPECT_EQ(entries[1].status, Error::kNoEventSet);
  EXPECT_EQ(entries[1].num_values, 0u);
}

TEST(BatchedRead, NeverStartedSetReportsNotRunning) {
  SimFixture f(sim::make_saxpy(500), pmu::sim_x86(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  // A handle reused after its set ran and was destroyed reads the same
  // until its new set publishes, not the destroyed set's last values.
  const int ran = make_sets(f, 2, nullptr)[1];
  ASSERT_TRUE(f.library->destroy_event_set(ran).ok());
  auto reused = f.library->create_event_set();
  ASSERT_TRUE(reused.ok());
  ASSERT_EQ(reused.value(), ran);
  const int batch[2] = {set.handle(), ran};
  std::vector<long long> values(4);
  std::vector<SnapshotEntry> entries(2);
  ASSERT_TRUE(f.library->read_many(batch, values, entries).ok());
  for (const SnapshotEntry& e : entries) {
    EXPECT_EQ(e.status, Error::kNotRunning) << e.handle;
    EXPECT_EQ(e.num_values, 0u) << e.handle;
  }
}

TEST(BatchedRead, SnapshotAllCoversEveryLiveSetInHandleOrder) {
  SimFixture f(sim::make_saxpy(2'000), pmu::sim_x86(),
               {.charge_costs = false});
  std::vector<std::array<long long, 2>> finals;
  const std::vector<int> handles = make_sets(f, 4, &finals);
  // One extra set that never runs: it must still appear, as kNotRunning.
  EventSet& idle = f.new_set();
  ASSERT_TRUE(idle.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(f.library->event_set(handles[0]).value()->start().ok());

  std::vector<SnapshotEntry> entries;
  std::vector<long long> values;
  ASSERT_TRUE(f.library->snapshot_all(entries, values).ok());
  ASSERT_EQ(entries.size(), 5u);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].handle, entries[i].handle);  // handle order
  }
  std::size_t total = 0;
  for (const SnapshotEntry& e : entries) {
    if (e.handle == idle.handle()) {
      EXPECT_EQ(e.status, Error::kNotRunning);
      EXPECT_EQ(e.num_values, 0u);
    } else {
      EXPECT_EQ(e.status, Error::kOk);
      EXPECT_EQ(e.num_values, 2u);
      EXPECT_EQ(e.first_value, total);  // values land back-to-back
    }
    total += e.num_values;
  }
  EXPECT_EQ(values.size(), total);

  // The fixed-capacity span overload must agree with the vector one.
  std::vector<SnapshotEntry> span_entries(8);
  std::vector<long long> span_values(16);
  std::size_t n_entries = 0;
  std::size_t n_values = 0;
  ASSERT_TRUE(f.library
                  ->snapshot_all(span_entries, span_values, &n_entries,
                                 &n_values)
                  .ok());
  ASSERT_EQ(n_entries, entries.size());
  ASSERT_EQ(n_values, values.size());
  for (std::size_t i = 0; i < n_entries; ++i) {
    EXPECT_EQ(span_entries[i].handle, entries[i].handle) << i;
    EXPECT_EQ(span_entries[i].status, entries[i].status) << i;
    EXPECT_EQ(span_entries[i].num_values, entries[i].num_values) << i;
  }
  for (std::size_t i = 0; i < n_values; ++i) {
    EXPECT_EQ(span_values[i], values[i]) << i;
  }
  EXPECT_TRUE(f.library->event_set(handles[0]).value()->stop().ok());
}

TEST(BatchedRead, PublicationCyclesStampAdvancesAndAges) {
  SimFixture f(sim::make_saxpy(2'000), pmu::sim_x86(),
               {.charge_costs = false});
  // Advance the clock first so the stopped set's stop()-time stamp is
  // distinguishable from "never ran".
  f.machine->run(1'000);
  std::vector<std::array<long long, 2>> finals;
  const std::vector<int> handles = make_sets(f, 2, &finals);
  EventSet* live = f.library->event_set(handles[0]).value();
  ASSERT_TRUE(live->start().ok());
  f.machine->run(2'000);

  std::vector<long long> values(4);
  std::vector<SnapshotEntry> entries(2);
  ASSERT_TRUE(f.library->read_many(handles, values, entries).ok());
  // Both entries ran at some point, so both carry a nonzero stamp.
  EXPECT_GT(entries[0].pub_cycles, 0u);
  EXPECT_GT(entries[1].pub_cycles, 0u);
  const std::uint64_t live_stamp = entries[0].pub_cycles;
  const std::uint64_t stopped_stamp = entries[1].pub_cycles;

  // More work, another batch: the live set's stamp advances with its
  // reads; the stopped set's publication is frozen at its stop().
  f.machine->run(2'000);
  ASSERT_TRUE(f.library->read_many(handles, values, entries).ok());
  EXPECT_GT(entries[0].pub_cycles, live_stamp);
  EXPECT_EQ(entries[1].pub_cycles, stopped_stamp);

  // A never-started set has no stamp to report.
  EventSet& idle = f.new_set();
  ASSERT_TRUE(idle.add_preset(Preset::kTotIns).ok());
  const int idle_batch[1] = {idle.handle()};
  ASSERT_TRUE(f.library->read_many(idle_batch, values, entries).ok());
  EXPECT_EQ(entries[0].status, Error::kNotRunning);
  EXPECT_EQ(entries[0].pub_cycles, 0u);
  EXPECT_TRUE(live->stop().ok());
}

TEST(BatchedRead, CapacityPrechecksFailWithInvalid) {
  SimFixture f(sim::make_saxpy(500), pmu::sim_x86(),
               {.charge_costs = false});
  std::vector<std::array<long long, 2>> finals;
  const std::vector<int> handles = make_sets(f, 2, &finals);
  std::vector<long long> values(4);
  std::vector<SnapshotEntry> entries(2);
  // Fewer entries than sets.
  EXPECT_EQ(f.library
                ->read_many(handles, values,
                            std::span<SnapshotEntry>(entries).first(1))
                .error(),
            Error::kInvalid);
  // Values buffer too small for the second set's publication (set 0
  // never ran, so it needs no value slots; set 1 needs two).
  EXPECT_EQ(f.library
                ->read_many(handles, std::span<long long>(values).first(1),
                            entries)
                .error(),
            Error::kInvalid);
  // Span snapshot_all with zero entry capacity but live sets.
  std::size_t n_entries = 0;
  std::size_t n_values = 0;
  EXPECT_EQ(f.library
                ->snapshot_all(std::span<SnapshotEntry>{},
                               std::span<long long>(values), &n_entries,
                               &n_values)
                .error(),
            Error::kInvalid);
}

TEST(BatchedRead, SteadyStateIsAllocationFree) {
  SimFixture f(sim::make_saxpy(2'000), pmu::sim_x86(),
               {.charge_costs = false});
  std::vector<std::array<long long, 2>> finals;
  const std::vector<int> handles = make_sets(f, 8, &finals);
  EventSet* live = f.library->event_set(handles[0]).value();
  ASSERT_TRUE(live->start().ok());
  std::vector<long long> values(16);
  std::vector<SnapshotEntry> entries(8);
  std::vector<SnapshotEntry> vec_entries;
  std::vector<long long> vec_values;
  // Warm every path once so lazily-sized capacity fills up front.
  ASSERT_TRUE(f.library->read_many(handles, values, entries).ok());
  ASSERT_TRUE(f.library->snapshot_all(vec_entries, vec_values).ok());

  constexpr int kIters = 1000;
  AllocationGuard guard;
  for (int i = 0; i < kIters; ++i) {
    (void)f.library->read_many(handles, values, entries);
    (void)f.library->snapshot_all(vec_entries, vec_values);
  }
  EXPECT_EQ(guard.delta(), 0u);
  EXPECT_TRUE(live->stop().ok());
}

TEST(BatchedRead, SteadyStateTakesNoLocks) {
  SimFixture f(sim::make_saxpy(2'000), pmu::sim_x86(),
               {.charge_costs = false});
  std::vector<std::array<long long, 2>> finals;
  const std::vector<int> handles = make_sets(f, 8, &finals);
  EventSet* live = f.library->event_set(handles[0]).value();
  ASSERT_TRUE(live->start().ok());
  std::vector<long long> values(16);
  std::vector<SnapshotEntry> entries;
  std::vector<long long> vec_values;
  std::array<long long, 2> v{};
  ASSERT_TRUE(f.library->snapshot_all(entries, vec_values).ok());

  const std::uint64_t locks_before = f.library->lock_acquisitions();
  for (int i = 0; i < 1000; ++i) {
    (void)live->read(v);
    (void)f.library->read_many(handles, values,
                               std::span<SnapshotEntry>(entries));
    (void)f.library->snapshot_all(entries, vec_values);
  }
  // The lock-free claim, as an equality: reads, batched reads, and
  // full-registry snapshots took zero registry or handle-table locks.
  EXPECT_EQ(f.library->lock_acquisitions(), locks_before);
  EXPECT_TRUE(live->stop().ok());
}

TEST(BatchedRegistry, SnapshotAllRacesHandleChurn) {
  SimFixture f(sim::make_saxpy(500), pmu::sim_x86(),
               {.charge_costs = false});
  std::vector<std::array<long long, 2>> finals;
  const std::vector<int> stable = make_sets(f, 4, &finals);
  constexpr int kChurnThreads = 4;
  constexpr int kChurnIters = 300;
  std::atomic<int> churn_failures{0};
  std::atomic<int> done{0};
  std::vector<std::thread> churners;
  for (int t = 0; t < kChurnThreads; ++t) {
    churners.emplace_back([&] {
      for (int i = 0; i < kChurnIters; ++i) {
        auto handle = f.library->create_event_set();
        if (!handle.ok() ||
            !f.library->destroy_event_set(handle.value()).ok()) {
          churn_failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // Main thread snapshots the registry throughout the churn.  Every
  // entry it sees must be internally consistent — a torn walk would
  // surface as a nonsense handle or value count.
  std::vector<SnapshotEntry> entries;
  std::vector<long long> values;
  int bad_entries = 0;
  while (done.load(std::memory_order_relaxed) < kChurnThreads) {
    if (!f.library->snapshot_all(entries, values).ok()) {
      ++bad_entries;
      break;
    }
    if (entries.size() < stable.size()) ++bad_entries;
    for (const SnapshotEntry& e : entries) {
      if (e.handle <= 0 || e.num_values > 2) ++bad_entries;
      if (e.status != Error::kOk && e.status != Error::kNotRunning) {
        ++bad_entries;
      }
    }
  }
  for (auto& th : churners) th.join();
  EXPECT_EQ(churn_failures.load(), 0);
  EXPECT_EQ(bad_entries, 0);
  EXPECT_EQ(f.library->num_event_sets(), stable.size());
  // The table still serves a create/destroy cycle after the churn.
  auto handle = f.library->create_event_set();
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(f.library->destroy_event_set(handle.value()).ok());
}

TEST(BatchedRegistry, DestroyDuringBatchedReadsIsAPerEntryStatus) {
  SimFixture f(sim::make_saxpy(500), pmu::sim_x86(),
               {.charge_costs = false});
  std::vector<std::array<long long, 2>> finals;
  std::vector<int> handles = make_sets(f, 8, &finals);
  constexpr int kReaders = 2;
  constexpr int kReads = 1500;

  // Readers need their own machines: batched reads register the thread,
  // which creates a CounterContext on its bound machine.
  std::vector<std::unique_ptr<sim::Machine>> machines;
  std::vector<sim::Workload> workloads;
  for (int t = 0; t < kReaders; ++t) {
    workloads.push_back(sim::make_saxpy(100));
    machines.push_back(std::make_unique<sim::Machine>(
        workloads.back().program, pmu::sim_x86().machine));
    if (workloads.back().setup) workloads.back().setup(*machines.back());
  }
  std::atomic<int> reader_failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      f.substrate->bind_thread_machine(*machines[t]);
      std::vector<long long> values(16);
      std::vector<SnapshotEntry> entries(8);
      for (int i = 0; i < kReads; ++i) {
        if (!f.library->read_many(handles, values, entries).ok()) {
          reader_failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        for (const SnapshotEntry& e : entries) {
          // A destroyed handle must downgrade to a per-entry status,
          // never a crash or a torn value block.
          if (e.status != Error::kOk && e.status != Error::kNoEventSet &&
              e.status != Error::kNotRunning) {
            reader_failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
      }
      (void)f.library->unregister_thread();
    });
  }
  // Destroy every set mid-flight, then recreate a fresh population.
  for (const int h : handles) {
    ASSERT_TRUE(f.library->destroy_event_set(h).ok());
  }
  const std::vector<int> fresh = make_sets(f, 4, nullptr);
  for (auto& th : readers) th.join();
  EXPECT_EQ(reader_failures.load(), 0);
  auto handle = f.library->create_event_set();
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(f.library->destroy_event_set(handle.value()).ok());
  EXPECT_EQ(f.library->num_event_sets(), fresh.size());
}

TEST(BatchedRegistry, ReusedHandleShowsOnlyWholeIncarnations) {
  SimFixture f(sim::make_saxpy(500), pmu::sim_x86(),
               {.charge_costs = false});
  constexpr int kReaders = 2;
  constexpr int kIncarnations = 300;
  // Every thread that starts a set or reads in a batch registers, which
  // creates a CounterContext on its bound machine: one machine each for
  // the readers and the churner.
  std::vector<std::unique_ptr<sim::Machine>> machines;
  std::vector<sim::Workload> workloads;
  for (int t = 0; t < kReaders + 1; ++t) {
    workloads.push_back(sim::make_saxpy(100));
    machines.push_back(std::make_unique<sim::Machine>(
        workloads.back().program, pmu::sim_x86().machine));
    if (workloads.back().setup) workloads.back().setup(*machines.back());
  }
  auto first = f.library->create_event_set();
  ASSERT_TRUE(first.ok());
  const int h = first.value();

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  const auto bad = [&] { failures.fetch_add(1, std::memory_order_relaxed); };
  // One entry for `h` from any incarnation: a whole publication (one or
  // three values) or none at all, never a freed set's or a torn shape.
  const auto check = [&](const SnapshotEntry& e) {
    if (e.status != Error::kOk && e.status != Error::kNotRunning &&
        e.status != Error::kNoEventSet) {
      bad();
    }
    if (e.num_values != 0 && e.num_values != 1 && e.num_values != 3) bad();
    if (e.status != Error::kOk && e.num_values != 0) bad();
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      f.substrate->bind_thread_machine(*machines[t]);
      std::vector<long long> values(16);
      std::vector<SnapshotEntry> entries(1);
      std::vector<SnapshotEntry> all_entries;
      std::vector<long long> all_values;
      while (!done.load(std::memory_order_acquire)) {
        if (!f.library->read_many({&h, 1}, values, entries).ok()) bad();
        check(entries[0]);
        if (!f.library->snapshot_all(all_entries, all_values).ok()) bad();
        for (const SnapshotEntry& e : all_entries) {
          if (e.handle == h) check(e);
        }
      }
      (void)f.library->unregister_thread();
    });
  }
  // The churner destroys and recreates `h` (LIFO reuse hands the same
  // handle back), alternating one and three events, and runs each set
  // once so it publishes.
  std::thread churner([&] {
    f.substrate->bind_thread_machine(*machines[kReaders]);
    for (int i = 0; i < kIncarnations; ++i) {
      if (!f.library->destroy_event_set(h).ok()) bad();
      auto reused = f.library->create_event_set();
      if (!reused.ok() || reused.value() != h) {
        bad();
        break;
      }
      EventSet& set = *f.library->event_set(h).value();
      if (!set.add_preset(Preset::kTotIns).ok()) bad();
      if (i % 2 == 1) {
        if (!set.add_preset(Preset::kTotCyc).ok()) bad();
        if (!set.add_preset(Preset::kFmaIns).ok()) bad();
      }
      if (!set.start().ok() || !set.stop().ok()) bad();
    }
    (void)f.library->unregister_thread();
    done.store(true, std::memory_order_release);
  });
  churner.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(f.library->num_event_sets(), 1u);
}

TEST(BatchedRegistry, ThreadSlotsAreReusedAcrossWaves) {
  SimFixture f(sim::make_saxpy(500), pmu::sim_x86(),
               {.charge_costs = false});
  std::vector<std::array<long long, 2>> finals;
  const std::vector<int> handles = make_sets(f, 2, &finals);
  // Three sequential waves of short-lived threads: every wave's slots
  // are erased (keys return to 0) and must be reclaimed by the next
  // wave, not appended — the registry's capacity is bounded by peak
  // concurrency, not by thread churn.
  for (int wave = 0; wave < 3; ++wave) {
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&] {
        std::vector<long long> values(8);
        std::vector<SnapshotEntry> entries(4);
        if (!f.library->register_thread().ok() ||
            !f.library->read_many(handles, values, entries).ok() ||
            !f.library->unregister_thread().ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      });
      threads.back().join();  // sequential: exercises reuse, not growth
    }
    EXPECT_EQ(failures.load(), 0) << "wave " << wave;
  }
  // Only the main thread (registered by make_sets' start/stop) remains.
  EXPECT_EQ(f.library->num_threads(), 1u);
  // The registry still serves batched reads after all the churn.
  std::vector<SnapshotEntry> entries;
  std::vector<long long> values;
  ASSERT_TRUE(f.library->snapshot_all(entries, values).ok());
  EXPECT_EQ(entries.size(), handles.size());
}

}  // namespace
}  // namespace papirepro::papi
