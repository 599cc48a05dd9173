// End-to-end tests of the C binding.  Global-state: each test creates
// and tears down the library explicitly (PAPI_shutdown), and the suite
// relies on gtest running tests sequentially in one process.
#include "capi/papi.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>

namespace {

class CapiSim : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = PAPIrepro_sim_create("sim-x86", "saxpy", 10'000);
    ASSERT_NE(sim_, nullptr);
    ASSERT_EQ(PAPIrepro_bind_sim(sim_), PAPI_OK);
    ASSERT_EQ(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);
  }
  void TearDown() override {
    PAPI_shutdown();
    PAPIrepro_sim_destroy(sim_);
  }
  PAPIrepro_sim_t* sim_ = nullptr;
};

TEST_F(CapiSim, LowLevelLifecycle) {
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_FMA_INS), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_INS), PAPI_OK);
  EXPECT_EQ(PAPI_num_events(es), 2);
  ASSERT_EQ(PAPI_start(es), PAPI_OK);
  PAPIrepro_sim_run(sim_, -1);
  long long values[2] = {};
  ASSERT_EQ(PAPI_stop(es, values), PAPI_OK);
  EXPECT_EQ(values[0], 10'000);
  EXPECT_GT(values[1], 10'000);
  ASSERT_EQ(PAPI_destroy_eventset(&es), PAPI_OK);
  EXPECT_EQ(es, PAPI_NULL);
}

TEST_F(CapiSim, ReadAccumReset) {
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_FMA_INS), PAPI_OK);
  ASSERT_EQ(PAPI_start(es), PAPI_OK);
  PAPIrepro_sim_run(sim_, 30'000);
  long long v = 0;
  ASSERT_EQ(PAPI_read(es, &v), PAPI_OK);
  EXPECT_GT(v, 0);
  ASSERT_EQ(PAPI_reset(es), PAPI_OK);
  long long acc = 5;
  PAPIrepro_sim_run(sim_, -1);
  ASSERT_EQ(PAPI_accum(es, &acc), PAPI_OK);
  long long fin = 0;
  ASSERT_EQ(PAPI_stop(es, &fin), PAPI_OK);
  EXPECT_EQ(acc - 5 + fin + v, 10'000);
}

TEST_F(CapiSim, EventNameRoundTrip) {
  int code = 0;
  ASSERT_EQ(PAPI_event_name_to_code("PAPI_TOT_CYC", &code), PAPI_OK);
  EXPECT_EQ(code, PAPI_TOT_CYC);
  char name[PAPI_MAX_STR_LEN];
  ASSERT_EQ(PAPI_event_code_to_name(code, name, sizeof(name)), PAPI_OK);
  EXPECT_STREQ(name, "PAPI_TOT_CYC");
  // Native events work too.
  ASSERT_EQ(PAPI_event_name_to_code("L1D_MISS", &code), PAPI_OK);
  ASSERT_EQ(PAPI_event_code_to_name(code, name, sizeof(name)), PAPI_OK);
  EXPECT_STREQ(name, "L1D_MISS");
  EXPECT_EQ(PAPI_event_name_to_code("BOGUS", &code), PAPI_ENOEVNT);
}

TEST_F(CapiSim, QueryEventAndCounters) {
  EXPECT_EQ(PAPI_query_event(PAPI_FP_OPS), PAPI_OK);
  EXPECT_EQ(PAPI_query_event(PAPI_FDV_INS), PAPI_ENOEVNT);  // x86: absent
  EXPECT_EQ(PAPI_num_hwctrs(), 4);
}

TEST_F(CapiSim, HighLevelFlops) {
  float rtime, ptime, mflops;
  long long flpops;
  ASSERT_EQ(PAPI_flops(&rtime, &ptime, &flpops, &mflops), PAPI_OK);
  PAPIrepro_sim_run(sim_, -1);
  ASSERT_EQ(PAPI_flops(&rtime, &ptime, &flpops, &mflops), PAPI_OK);
  EXPECT_EQ(flpops, 20'000);  // FMA normalized x2
  EXPECT_GT(rtime, 0.0f);
  EXPECT_GT(mflops, 0.0f);
}

TEST_F(CapiSim, HighLevelStartStop) {
  int events[2] = {PAPI_TOT_CYC, PAPI_LD_INS};
  ASSERT_EQ(PAPI_start_counters(events, 2), PAPI_OK);
  PAPIrepro_sim_run(sim_, -1);
  long long values[2] = {};
  ASSERT_EQ(PAPI_stop_counters(values, 2), PAPI_OK);
  EXPECT_GT(values[0], 0);
  EXPECT_EQ(values[1], 20'000);
}

TEST_F(CapiSim, HighLevelShortStopKeepsCounting) {
  // A short array is rejected before anything stops: the counters keep
  // running, the right-sized stop returns their counts, and the high
  // level is free for the next start.
  int events[2] = {PAPI_FMA_INS, PAPI_LD_INS};
  ASSERT_EQ(PAPI_start_counters(events, 2), PAPI_OK);
  PAPIrepro_sim_run(sim_, -1);
  long long values[2] = {};
  EXPECT_EQ(PAPI_stop_counters(values, 1), PAPI_EINVAL);
  ASSERT_EQ(PAPI_stop_counters(values, 2), PAPI_OK);
  EXPECT_EQ(values[0], 10'000);
  EXPECT_EQ(values[1], 20'000);
  ASSERT_EQ(PAPI_start_counters(events, 2), PAPI_OK);
  ASSERT_EQ(PAPI_stop_counters(values, 2), PAPI_OK);
}

TEST_F(CapiSim, Multiplex) {
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_set_multiplex(es), PAPI_OK);
  ASSERT_EQ(PAPI_add_named_event(es, "L1D_MISS"), PAPI_OK);
  ASSERT_EQ(PAPI_add_named_event(es, "L1D_ACCESS"), PAPI_OK);
  ASSERT_EQ(PAPI_add_named_event(es, "LD_RETIRED"), PAPI_OK);
  ASSERT_EQ(PAPI_start(es), PAPI_OK);
  PAPIrepro_sim_run(sim_, -1);
  long long values[3] = {};
  ASSERT_EQ(PAPI_stop(es, values), PAPI_OK);
  // Estimated loads within 25% on this moderate run.
  EXPECT_NEAR(static_cast<double>(values[2]), 20'000.0, 5'000.0);
}

TEST_F(CapiSim, Overflow) {
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_INS), PAPI_OK);
  static int fires;  // C callbacks carry no closure state
  fires = 0;
  auto handler = [](int, void*, long long, void*) { ++fires; };
  ASSERT_EQ(PAPI_overflow(es, PAPI_TOT_INS, 10'000, 0, handler), PAPI_OK);
  ASSERT_EQ(PAPI_start(es), PAPI_OK);
  PAPIrepro_sim_run(sim_, -1);
  long long v;
  ASSERT_EQ(PAPI_stop(es, &v), PAPI_OK);
  EXPECT_GE(fires, 7);
}

TEST_F(CapiSim, Profil) {
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_INS), PAPI_OK);
  unsigned int buckets[64] = {};
  ASSERT_EQ(PAPI_profil(buckets, 64, 0x400000, 0x4000, es, PAPI_TOT_INS,
                        500),
            PAPI_OK);
  ASSERT_EQ(PAPI_start(es), PAPI_OK);
  PAPIrepro_sim_run(sim_, -1);
  long long v;
  ASSERT_EQ(PAPI_stop(es, &v), PAPI_OK);
  unsigned long total = 0;
  for (unsigned int b : buckets) total += b;
  EXPECT_GT(total, 50u);
}

TEST_F(CapiSim, ListEventsAndState) {
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_CYC), PAPI_OK);
  ASSERT_EQ(PAPI_add_named_event(es, "L1D_MISS"), PAPI_OK);

  int codes[8];
  int number = 8;
  ASSERT_EQ(PAPI_list_events(es, codes, &number), PAPI_OK);
  ASSERT_EQ(number, 2);
  EXPECT_EQ(codes[0], PAPI_TOT_CYC);
  char name[PAPI_MAX_STR_LEN];
  ASSERT_EQ(PAPI_event_code_to_name(codes[1], name, sizeof(name)),
            PAPI_OK);
  EXPECT_STREQ(name, "L1D_MISS");

  // Capacity smaller than membership: count still reported.
  int one_code[1];
  number = 1;
  ASSERT_EQ(PAPI_list_events(es, one_code, &number), PAPI_OK);
  EXPECT_EQ(number, 2);

  int state = 0;
  ASSERT_EQ(PAPI_state(es, &state), PAPI_OK);
  EXPECT_EQ(state, PAPI_STOPPED);
  ASSERT_EQ(PAPI_start(es), PAPI_OK);
  ASSERT_EQ(PAPI_state(es, &state), PAPI_OK);
  EXPECT_EQ(state, PAPI_RUNNING);
  long long v[2];
  ASSERT_EQ(PAPI_stop(es, v), PAPI_OK);
}

TEST_F(CapiSim, VirtCycles) {
  const long long c0 = PAPI_get_virt_cyc();
  PAPIrepro_sim_run(sim_, -1);
  EXPECT_GT(PAPI_get_virt_cyc(), c0);
}

TEST_F(CapiSim, ProfilArgumentValidation) {
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_INS), PAPI_OK);
  unsigned int buf[16];
  EXPECT_EQ(PAPI_profil(nullptr, 16, 0x400000, 0x4000, es, PAPI_TOT_INS,
                        100),
            PAPI_EINVAL);
  EXPECT_EQ(
      PAPI_profil(buf, 0, 0x400000, 0x4000, es, PAPI_TOT_INS, 100),
      PAPI_EINVAL);
  EXPECT_EQ(PAPI_profil(buf, 16, 0x400000, 0x4000, es, PAPI_FP_OPS, 100),
            PAPI_ENOEVNT);  // not a member event
  // Arm then disarm before ever starting: both succeed.
  ASSERT_EQ(
      PAPI_profil(buf, 16, 0x400000, 0x4000, es, PAPI_TOT_INS, 100),
      PAPI_OK);
  EXPECT_EQ(PAPI_profil(buf, 16, 0x400000, 0x4000, es, PAPI_TOT_INS, 0),
            PAPI_OK);
}

TEST_F(CapiSim, Timers) {
  const long long t0 = PAPI_get_real_usec();
  const long long c0 = PAPI_get_real_cyc();
  PAPIrepro_sim_run(sim_, -1);
  EXPECT_GT(PAPI_get_real_usec(), t0);
  EXPECT_GT(PAPI_get_real_cyc(), c0);
  EXPECT_EQ(PAPI_get_virt_usec(), PAPI_get_real_usec());
}

TEST_F(CapiSim, MemoryInfo) {
  PAPI_mem_info_t info;
  ASSERT_EQ(PAPI_get_memory_info(&info), PAPI_OK);
  EXPECT_GT(info.total_bytes, 0);
  EXPECT_GT(info.process_resident_bytes, 0);
}

TEST_F(CapiSim, SetDomain) {
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_CYC), PAPI_OK);
  ASSERT_EQ(PAPI_set_domain(es, PAPI_DOM_USER), PAPI_OK);
  EXPECT_EQ(PAPI_set_domain(es, 0), PAPI_EINVAL);
  ASSERT_EQ(PAPI_start(es), PAPI_OK);
  // Reads inject kernel-context cycles the user-domain counter ignores.
  long long v1 = 0;
  PAPIrepro_sim_run(sim_, 40'000);
  ASSERT_EQ(PAPI_read(es, &v1), PAPI_OK);
  long long user = 0;
  ASSERT_EQ(PAPI_stop(es, &user), PAPI_OK);

  // Same flow with DOM_ALL on a fresh identical simulator: must be
  // strictly larger (the read/stop overhead is visible).
  PAPI_shutdown();
  PAPIrepro_sim_destroy(sim_);
  sim_ = PAPIrepro_sim_create("sim-x86", "saxpy", 10'000);
  ASSERT_EQ(PAPIrepro_bind_sim(sim_), PAPI_OK);
  ASSERT_EQ(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_CYC), PAPI_OK);
  ASSERT_EQ(PAPI_set_domain(es, PAPI_DOM_ALL), PAPI_OK);
  ASSERT_EQ(PAPI_start(es), PAPI_OK);
  long long v2 = 0;
  PAPIrepro_sim_run(sim_, 40'000);
  ASSERT_EQ(PAPI_read(es, &v2), PAPI_OK);
  long long all = 0;
  ASSERT_EQ(PAPI_stop(es, &all), PAPI_OK);
  EXPECT_GT(all, user);
}

TEST_F(CapiSim, Strerror) {
  EXPECT_STREQ(PAPI_strerror(PAPI_OK), "No error");
  EXPECT_NE(std::string(PAPI_strerror(PAPI_ECNFLCT)).find("conflict"),
            std::string::npos);
}

TEST(CapiNoInit, ErrorsBeforeInit) {
  ASSERT_EQ(PAPI_is_initialized(), 0);
  int es;
  EXPECT_EQ(PAPI_create_eventset(&es), PAPI_ENOINIT);
  EXPECT_EQ(PAPI_num_hwctrs(), PAPI_ENOINIT);
  EXPECT_EQ(PAPI_query_event(PAPI_TOT_CYC), PAPI_ENOINIT);
}

TEST(CapiHost, HostSubstrateTimersWork) {
  ASSERT_EQ(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);
  EXPECT_EQ(PAPI_num_hwctrs(), 0);
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  EXPECT_EQ(PAPI_add_event(es, PAPI_TOT_CYC), PAPI_ENOEVNT);
  EXPECT_GE(PAPI_get_real_usec(), 0);
  PAPI_mem_info_t info;
  EXPECT_EQ(PAPI_get_memory_info(&info), PAPI_OK);
  PAPI_shutdown();
}

TEST_F(CapiSim, ThreadApi) {
  ASSERT_EQ(PAPI_thread_init([] { return 7ul; }), PAPI_OK);
  EXPECT_EQ(PAPI_thread_id(), 7ul);
  ASSERT_EQ(PAPI_register_thread(), PAPI_OK);
  EXPECT_EQ(PAPI_num_threads(), 1);
  ASSERT_EQ(PAPI_unregister_thread(), PAPI_OK);
  EXPECT_EQ(PAPI_num_threads(), 0);
  EXPECT_EQ(PAPI_unregister_thread(), PAPI_EINVAL);
}

TEST_F(CapiSim, ThreadsCountConcurrently) {
  // Two C-API threads, each bound to its own simulated machine, each
  // driving its own EventSet through the one global PAPI instance.
  constexpr int kThreads = 2;
  PAPIrepro_sim_t* sims[kThreads] = {nullptr, nullptr};
  long long counts[kThreads] = {-1, -1};
  for (int t = 0; t < kThreads; ++t) {
    sims[t] = PAPIrepro_sim_create("sim-x86", "saxpy", 5'000 * (t + 1));
    ASSERT_NE(sims[t], nullptr);
  }
  std::thread workers[kThreads];
  for (int t = 0; t < kThreads; ++t) {
    workers[t] = std::thread([&, t] {
      if (PAPIrepro_sim_bind_thread(sims[t]) != PAPI_OK) return;
      int es = PAPI_NULL;
      if (PAPI_create_eventset(&es) != PAPI_OK ||
          PAPI_add_event(es, PAPI_FMA_INS) != PAPI_OK ||
          PAPI_start(es) != PAPI_OK) {
        return;
      }
      PAPIrepro_sim_run(sims[t], -1);
      long long v = -1;
      if (PAPI_stop(es, &v) != PAPI_OK) return;
      counts[t] = v;
      (void)PAPI_destroy_eventset(&es);
      (void)PAPI_unregister_thread();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counts[0], 5'000);
  EXPECT_EQ(counts[1], 10'000);
  for (PAPIrepro_sim_t* s : sims) PAPIrepro_sim_destroy(s);
}

TEST(CapiSimBootstrap, RejectsUnknownNames) {
  EXPECT_EQ(PAPIrepro_sim_create("sim-vax", "saxpy", 0), nullptr);
  EXPECT_EQ(PAPIrepro_sim_create("sim-x86", "not_a_kernel", 0), nullptr);
}

TEST(CapiSimBootstrap, AlphaEstimation) {
  PAPIrepro_sim_t* sim =
      PAPIrepro_sim_create("sim-alpha", "saxpy", 100'000);
  ASSERT_NE(sim, nullptr);
  ASSERT_EQ(PAPIrepro_bind_sim(sim), PAPI_OK);
  ASSERT_EQ(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);
  ASSERT_EQ(PAPIrepro_set_estimation(1), PAPI_OK);
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_FP_OPS), PAPI_OK);
  ASSERT_EQ(PAPI_start(es), PAPI_OK);
  PAPIrepro_sim_run(sim, -1);
  long long v;
  ASSERT_EQ(PAPI_stop(es, &v), PAPI_OK);
  // FP_OPS = RETIRED_FP + FMA = 2n, estimated from samples.
  EXPECT_NEAR(static_cast<double>(v), 200'000.0, 30'000.0);
  PAPI_shutdown();
  PAPIrepro_sim_destroy(sim);
}

}  // namespace
