// Table-driven C-API error matrix: every EventSet entry point against
// the documented failure classes — uninitialized library, bad handle,
// freed handle, not-running set, null out-pointer — plus the
// fault-injection extension surface (PAPIrepro_set_fault_plan /
// PAPIrepro_inject_faults / PAPIrepro_set_retry) end to end.  Real PAPI
// earned its portability by returning the *same* error codes on every
// substrate; this suite pins the contract down so substrate or hardening
// changes cannot silently shift a code.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "capi/papi.h"

namespace {

/// One entry point driven with an arbitrary EventSet handle.
struct HandleCase {
  const char* name;
  std::function<int(int handle)> call;
};

std::vector<HandleCase> handle_cases() {
  static long long values[32];
  static int codes[32];
  static int number;
  static int state;
  return {
      {"PAPI_add_event",
       [](int h) { return PAPI_add_event(h, PAPI_TOT_INS); }},
      {"PAPI_add_named_event",
       [](int h) { return PAPI_add_named_event(h, "PAPI_TOT_INS"); }},
      {"PAPI_remove_event",
       [](int h) { return PAPI_remove_event(h, PAPI_TOT_INS); }},
      {"PAPI_num_events", [](int h) { return PAPI_num_events(h); }},
      {"PAPI_set_multiplex", [](int h) { return PAPI_set_multiplex(h); }},
      {"PAPI_set_domain",
       [](int h) { return PAPI_set_domain(h, PAPI_DOM_USER); }},
      {"PAPI_start", [](int h) { return PAPI_start(h); }},
      {"PAPI_stop", [](int h) { return PAPI_stop(h, values); }},
      {"PAPI_read", [](int h) { return PAPI_read(h, values); }},
      {"PAPI_accum", [](int h) { return PAPI_accum(h, values); }},
      {"PAPI_reset", [](int h) { return PAPI_reset(h); }},
      {"PAPI_overflow",
       [](int h) {
         return PAPI_overflow(h, PAPI_TOT_INS, 1000, 0,
                              [](int, void*, long long, void*) {});
       }},
      {"PAPI_profil",
       [](int h) {
         static unsigned int pbuf[64];
         return PAPI_profil(pbuf, 64, 0x400000, 0, h, PAPI_TOT_INS, 1000);
       }},
      {"PAPI_list_events",
       [](int h) {
         number = 32;
         return PAPI_list_events(h, codes, &number);
       }},
      {"PAPI_state", [](int h) { return PAPI_state(h, &state); }},
  };
}

class CapiErrors : public ::testing::Test {
 protected:
  void SetUp() override {
    PAPI_shutdown();  // other suites may have left global state behind
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

TEST(CapiErrorsNoInit, EveryEntryPointReportsNoInit) {
  PAPI_shutdown();
  ASSERT_EQ(PAPI_is_initialized(), 0);
  for (const HandleCase& c : handle_cases()) {
    EXPECT_EQ(c.call(0), PAPI_ENOINIT) << c.name;
  }
  int es;
  long long values[2];
  int events[2] = {PAPI_TOT_CYC, PAPI_TOT_INS};
  EXPECT_EQ(PAPI_create_eventset(&es), PAPI_ENOINIT);
  EXPECT_EQ(PAPI_destroy_eventset(&es), PAPI_ENOINIT);
  EXPECT_EQ(PAPI_thread_init([] { return 0ul; }), PAPI_ENOINIT);
  EXPECT_EQ(PAPI_register_thread(), PAPI_ENOINIT);
  EXPECT_EQ(PAPI_num_threads(), PAPI_ENOINIT);
  EXPECT_EQ(PAPI_start_counters(events, 2), PAPI_ENOINIT);
  EXPECT_EQ(PAPI_stop_counters(values, 2), PAPI_ENOINIT);
  EXPECT_EQ(PAPIrepro_set_retry(3, 0), PAPI_ENOINIT);
  EXPECT_EQ(PAPIrepro_set_estimation(1), PAPI_ENOINIT);
  EXPECT_EQ(PAPIrepro_set_sampling(1, 0), PAPI_ENOINIT);
  PAPIrepro_telemetry_t telemetry;
  EXPECT_EQ(PAPIrepro_get_telemetry(&telemetry), PAPI_ENOINIT);
  EXPECT_EQ(PAPIrepro_set_trace(1, 0), PAPI_ENOINIT);
  EXPECT_EQ(PAPIrepro_dump_trace("trace.json", PAPIREPRO_TRACE_JSON),
            PAPI_ENOINIT);
  double ratio = 0.0;
  EXPECT_EQ(PAPIrepro_overhead_ratio(0, &ratio), PAPI_ENOINIT);
  PAPIrepro_component_info_t info;
  EXPECT_EQ(PAPI_num_components(), PAPI_ENOINIT);
  EXPECT_EQ(PAPI_get_component_info(0, &info), PAPI_ENOINIT);
  EXPECT_EQ(PAPIrepro_set_component_enabled(0, 1), PAPI_ENOINIT);
}

TEST_F(CapiErrors, BadHandleReportsNoEventSet) {
  for (const HandleCase& c : handle_cases()) {
    EXPECT_EQ(c.call(9999), PAPI_ENOEVST) << c.name << " (bogus)";
    EXPECT_EQ(c.call(PAPI_NULL), PAPI_ENOEVST) << c.name << " (NULL)";
  }
}

TEST_F(CapiErrors, FreedHandleReportsNoEventSet) {
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_INS), PAPI_OK);
  const int freed = es;
  ASSERT_EQ(PAPI_destroy_eventset(&es), PAPI_OK);
  ASSERT_EQ(es, PAPI_NULL);
  for (const HandleCase& c : handle_cases()) {
    EXPECT_EQ(c.call(freed), PAPI_ENOEVST) << c.name;
  }
}

TEST_F(CapiErrors, NotRunningSetReportsNotRunning) {
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_INS), PAPI_OK);
  long long values[1];
  // Never started: no counts to stop, read, or accumulate.
  EXPECT_EQ(PAPI_stop(es, values), PAPI_ENOTRUN);
  EXPECT_EQ(PAPI_read(es, values), PAPI_ENOTRUN);
  EXPECT_EQ(PAPI_accum(es, values), PAPI_ENOTRUN);
  // Started then stopped: stop again is ENOTRUN, but read still serves
  // the final snapshot (the PAPI read-after-stop contract).
  ASSERT_EQ(PAPI_start(es), PAPI_OK);
  EXPECT_EQ(PAPI_start(es), PAPI_EISRUN);  // double start, while here
  ASSERT_EQ(PAPI_stop(es, values), PAPI_OK);
  EXPECT_EQ(PAPI_stop(es, values), PAPI_ENOTRUN);
  EXPECT_EQ(PAPI_read(es, values), PAPI_OK);
}

TEST_F(CapiErrors, NullOutPointersReportInval) {
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_INS), PAPI_OK);
  ASSERT_EQ(PAPI_start(es), PAPI_OK);
  EXPECT_EQ(PAPI_read(es, nullptr), PAPI_EINVAL);
  EXPECT_EQ(PAPI_accum(es, nullptr), PAPI_EINVAL);
  EXPECT_EQ(PAPI_state(es, nullptr), PAPI_EINVAL);
  EXPECT_EQ(PAPI_list_events(es, nullptr, nullptr), PAPI_EINVAL);
  // PAPI_stop with null values discards counts but must still stop.
  EXPECT_EQ(PAPI_stop(es, nullptr), PAPI_OK);

  EXPECT_EQ(PAPI_create_eventset(nullptr), PAPI_EINVAL);
  EXPECT_EQ(PAPI_destroy_eventset(nullptr), PAPI_EINVAL);
  int code;
  char name[PAPI_MAX_STR_LEN];
  EXPECT_EQ(PAPI_event_name_to_code(nullptr, &code), PAPI_EINVAL);
  EXPECT_EQ(PAPI_event_name_to_code("PAPI_TOT_INS", nullptr), PAPI_EINVAL);
  EXPECT_EQ(PAPI_event_code_to_name(PAPI_TOT_INS, nullptr, 8), PAPI_EINVAL);
  EXPECT_EQ(PAPI_event_code_to_name(PAPI_TOT_INS, name, 0), PAPI_EINVAL);
  EXPECT_EQ(PAPI_add_named_event(es, nullptr), PAPI_EINVAL);
  EXPECT_EQ(PAPI_get_memory_info(nullptr), PAPI_EINVAL);
  EXPECT_EQ(PAPI_thread_init(nullptr), PAPI_EINVAL);
  EXPECT_EQ(PAPI_start_counters(nullptr, 1), PAPI_EINVAL);
  EXPECT_EQ(PAPI_read_counters(nullptr, 1), PAPI_EINVAL);
}

TEST_F(CapiErrors, UnknownEventCodesReportNoEvent) {
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  const int bogus = 0x7f123456;
  EXPECT_EQ(PAPI_add_event(es, bogus), PAPI_ENOEVNT);
  EXPECT_EQ(PAPI_add_named_event(es, "NOT_AN_EVENT"), PAPI_ENOEVNT);
  EXPECT_EQ(PAPI_remove_event(es, PAPI_TOT_INS), PAPI_ENOEVNT);
  char name[PAPI_MAX_STR_LEN];
  // A preset index beyond the table decodes to no event.
  EXPECT_EQ(PAPI_event_code_to_name(
                static_cast<int>(PAPI_PRESET_MASK | 0x7000), name,
                sizeof(name)),
            PAPI_ENOEVNT);
}

// ---- component registry surface ----

TEST_F(CapiErrors, ComponentInfoMatrix) {
  // A sim-bound init registers cpu + mem + net.
  ASSERT_EQ(PAPI_num_components(), 3);
  PAPIrepro_component_info_t info;
  EXPECT_EQ(PAPI_get_component_info(0, nullptr), PAPI_EINVAL);
  EXPECT_EQ(PAPI_get_component_info(-1, &info), PAPI_ENOCMP);
  EXPECT_EQ(PAPI_get_component_info(99, &info), PAPI_ENOCMP);
  ASSERT_EQ(PAPI_get_component_info(0, &info), PAPI_OK);
  EXPECT_STREQ(info.name, "cpu");
  EXPECT_EQ(info.id, 0);
  EXPECT_GT(info.num_counters, 0);
  EXPECT_EQ(info.enabled, 1);
  ASSERT_EQ(PAPI_get_component_info(1, &info), PAPI_OK);
  EXPECT_STREQ(info.name, "mem");
  ASSERT_EQ(PAPI_get_component_info(2, &info), PAPI_OK);
  EXPECT_STREQ(info.name, "net");

  EXPECT_EQ(PAPIrepro_set_component_enabled(-1, 0), PAPI_ENOCMP);
  EXPECT_EQ(PAPIrepro_set_component_enabled(99, 0), PAPI_ENOCMP);
}

TEST_F(CapiErrors, ComponentNamespaceAndDisableErrorPaths) {
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  // Unknown namespace prefix is a component error, not an event error.
  EXPECT_EQ(PAPI_add_named_event(es, "gpu::CYCLES"), PAPI_ENOCMP);
  int code = 0;
  EXPECT_EQ(PAPI_event_name_to_code("gpu::CYCLES", &code), PAPI_ENOCMP);
  // Known prefix, unknown name inside it.
  EXPECT_EQ(PAPI_add_named_event(es, "mem::NOT_AN_EVENT"), PAPI_ENOEVNT);

  // Soft-disabling the mem component turns new adds into ECMPDIS.
  ASSERT_EQ(PAPIrepro_set_component_enabled(1, 0), PAPI_OK);
  EXPECT_EQ(PAPI_add_named_event(es, "mem::BANDWIDTH_RD"), PAPI_ECMPDIS);
  PAPIrepro_component_info_t info;
  ASSERT_EQ(PAPI_get_component_info(1, &info), PAPI_OK);
  EXPECT_EQ(info.enabled, 0);
  ASSERT_EQ(PAPIrepro_set_component_enabled(1, 1), PAPI_OK);
  EXPECT_EQ(PAPI_add_named_event(es, "mem::BANDWIDTH_RD"), PAPI_OK);
}

TEST_F(CapiErrors, CrossComponentEventSetThroughCApi) {
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_CYC), PAPI_OK);

  // Name -> code -> name round-trips through the component field.
  int bw_code = 0;
  ASSERT_EQ(PAPI_event_name_to_code("mem::BANDWIDTH_RD", &bw_code),
            PAPI_OK);
  EXPECT_EQ(PAPIREPRO_EVENT_COMPONENT(bw_code), 1);
  char name[PAPI_MAX_STR_LEN];
  ASSERT_EQ(PAPI_event_code_to_name(bw_code, name, sizeof name), PAPI_OK);
  EXPECT_STREQ(name, "mem::BANDWIDTH_RD");
  ASSERT_EQ(PAPI_add_event(es, bw_code), PAPI_OK);
  ASSERT_EQ(PAPI_add_named_event(es, "net::PAPI_MSG_SNT"), PAPI_OK);
  EXPECT_EQ(PAPI_num_events(es), 3);

  ASSERT_EQ(PAPI_start(es), PAPI_OK);
  PAPIrepro_sim_run(sim_, -1);
  long long values[3] = {-1, -1, -1};
  ASSERT_EQ(PAPI_read(es, values), PAPI_OK);
  ASSERT_EQ(PAPI_stop(es, values), PAPI_OK);
  EXPECT_GT(values[0], 0);  // cpu::PAPI_TOT_CYC
  EXPECT_GT(values[1], 0);  // mem::BANDWIDTH_RD: saxpy misses in L2
  EXPECT_EQ(values[2], 0);  // net::PAPI_MSG_SNT: saxpy sends nothing

  // Per-component attribution is visible through the telemetry struct.
  PAPIrepro_telemetry_t t = {};
  ASSERT_EQ(PAPIrepro_get_telemetry(&t), PAPI_OK);
  EXPECT_EQ(t.num_components, 3);
  EXPECT_EQ(t.component_starts[0], 1);
  EXPECT_EQ(t.component_starts[1], 1);
  EXPECT_EQ(t.component_starts[2], 1);
  EXPECT_EQ(t.component_stops[1], 1);
  EXPECT_GE(t.component_reads[1], 1);
  EXPECT_EQ(t.component_reads[0], t.component_reads[2]);
}

// ---- overflow / profil argument matrix ----

TEST_F(CapiErrors, ProfilArgumentMatrix) {
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_INS), PAPI_OK);
  static unsigned int buf[64];

  struct Case {
    const char* name;
    unsigned int* buf;
    unsigned int bufsiz;
    unsigned int scale;
    int event_code;
    int threshold;
    int expected;
  };
  const Case cases[] = {
      {"null buffer", nullptr, 64, 0, PAPI_TOT_INS, 1000, PAPI_EINVAL},
      {"zero bufsiz", buf, 0, 0, PAPI_TOT_INS, 1000, PAPI_EINVAL},
      {"negative threshold", buf, 64, 0, PAPI_TOT_INS, -1, PAPI_EINVAL},
      {"scale above full-byte", buf, 64, 0x10001, PAPI_TOT_INS, 1000,
       PAPI_EINVAL},
      {"scale way out of range", buf, 64, 0x20000, PAPI_TOT_INS, 1000,
       PAPI_EINVAL},
      {"unknown event", buf, 64, 0, 0x7f123456, 1000, PAPI_ENOEVNT},
      {"event not in set", buf, 64, 0, PAPI_TOT_CYC, 1000, PAPI_ENOEVNT},
      {"stop when never armed", buf, 64, 0, PAPI_TOT_INS, 0,
       PAPI_ENOEVNT},
      {"defaulted scale ok", buf, 64, 0, PAPI_TOT_INS, 1000, PAPI_OK},
      {"explicit full-byte scale ok", buf, 64, 0x10000, PAPI_TOT_INS,
       1000, PAPI_OK},
      {"threshold 0 stops", buf, 64, 0, PAPI_TOT_INS, 0, PAPI_OK},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(PAPI_profil(c.buf, c.bufsiz, 0x400000, c.scale, es,
                          c.event_code, c.threshold),
              c.expected)
        << c.name;
  }
}

TEST_F(CapiErrors, OverflowArgumentMatrix) {
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_INS), PAPI_OK);
  const PAPI_overflow_handler_t handler = [](int, void*, long long,
                                             void*) {};

  struct Case {
    const char* name;
    int event_code;
    int threshold;
    PAPI_overflow_handler_t handler;
    int expected;
  };
  const Case cases[] = {
      {"null handler", PAPI_TOT_INS, 1000, nullptr, PAPI_EINVAL},
      {"negative threshold", PAPI_TOT_INS, -5, handler, PAPI_EINVAL},
      {"unknown event", 0x7f123456, 1000, handler, PAPI_ENOEVNT},
      {"event not in set", PAPI_TOT_CYC, 1000, handler, PAPI_ENOEVNT},
      {"clear when never armed", PAPI_TOT_INS, 0, handler, PAPI_ENOEVNT},
      {"arm ok", PAPI_TOT_INS, 1000, handler, PAPI_OK},
      {"threshold 0 clears", PAPI_TOT_INS, 0, handler, PAPI_OK},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(PAPI_overflow(es, c.event_code, c.threshold, 0, c.handler),
              c.expected)
        << c.name;
  }
}

TEST_F(CapiErrors, SamplingKnobMatrix) {
  // Ring capacity beyond the supported maximum (1 << 20 records).
  EXPECT_EQ(PAPIrepro_set_sampling(1, 1ull << 21), PAPI_EINVAL);

  ASSERT_EQ(PAPIrepro_set_sampling(1, 0), PAPI_OK);
  PAPIrepro_telemetry_t t = {};
  ASSERT_EQ(PAPIrepro_get_telemetry(&t), PAPI_OK);
  EXPECT_EQ(t.sampling_async, 1);
  EXPECT_EQ(t.sampling_ring_capacity, 1024);  // 0 keeps the default

  ASSERT_EQ(PAPIrepro_set_sampling(1, 4096), PAPI_OK);
  ASSERT_EQ(PAPIrepro_get_telemetry(&t), PAPI_OK);
  EXPECT_EQ(t.sampling_ring_capacity, 4096);

  ASSERT_EQ(PAPIrepro_set_sampling(0, 0), PAPI_OK);
  ASSERT_EQ(PAPIrepro_get_telemetry(&t), PAPI_OK);
  EXPECT_EQ(t.sampling_async, 0);
  EXPECT_EQ(t.sampling_ring_capacity, 4096);  // survives the toggle
}

TEST(CapiSampling, AsyncProfilDeliversHistogramAndStats) {
  PAPI_shutdown();
  PAPIrepro_sim_t* sim = PAPIrepro_sim_create("sim-power3", "saxpy",
                                              10'000);
  ASSERT_NE(sim, nullptr);
  ASSERT_EQ(PAPIrepro_bind_sim(sim), PAPI_OK);
  ASSERT_EQ(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);
  ASSERT_EQ(PAPIrepro_set_sampling(1, 8192), PAPI_OK);

  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_INS), PAPI_OK);
  unsigned int buf[256] = {};
  // 0x400000 is the simulator's text base (sim::kTextBase).
  ASSERT_EQ(PAPI_profil(buf, 256, 0x400000, 0, es, PAPI_TOT_INS, 500),
            PAPI_OK);
  ASSERT_EQ(PAPI_start(es), PAPI_OK);
  PAPIrepro_sim_run(sim, -1);
  long long v = 0;
  // PAPI_stop drains the ring before copying buckets out: the user
  // buffer is complete when it returns.
  ASSERT_EQ(PAPI_stop(es, &v), PAPI_OK);

  unsigned long long histogram_total = 0;
  for (const unsigned int b : buf) histogram_total += b;
  EXPECT_GT(histogram_total, 100u);

  PAPIrepro_telemetry_t t = {};
  ASSERT_EQ(PAPIrepro_get_telemetry(&t), PAPI_OK);
  EXPECT_EQ(t.sampling_async, 1);
  EXPECT_EQ(t.sampling_rings_active, 0);  // detached by PAPI_stop
  EXPECT_GE(t.sampling_flushes, 1);
  EXPECT_EQ(t.samples_dispatched, t.samples_enqueued);
  EXPECT_EQ(t.samples_dropped, 0);
  EXPECT_EQ(static_cast<unsigned long long>(t.samples_dispatched),
            histogram_total);
  PAPI_shutdown();
  PAPIrepro_sim_destroy(sim);
}

// ---- self-telemetry extension surface ----

TEST_F(CapiErrors, TelemetryKnobMatrix) {
  EXPECT_EQ(PAPIrepro_get_telemetry(nullptr), PAPI_EINVAL);

  double ratio = -1.0;
  EXPECT_EQ(PAPIrepro_overhead_ratio(9999, &ratio), PAPI_ENOEVST);
  EXPECT_EQ(PAPIrepro_overhead_ratio(PAPI_NULL, &ratio), PAPI_ENOEVST);
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  EXPECT_EQ(PAPIrepro_overhead_ratio(es, nullptr), PAPI_EINVAL);
  EXPECT_EQ(PAPIrepro_overhead_ratio(es, &ratio), PAPI_OK);
  EXPECT_EQ(ratio, 0.0);  // never run: no window, no overhead

  struct TraceCase {
    const char* name;
    int enable;
    unsigned long long capacity;
    int expected;
  };
  const TraceCase trace_cases[] = {
      {"capacity above ring max", 1, 1ull << 21, PAPI_EINVAL},
      {"default capacity", 1, 0, PAPI_OK},
      {"explicit capacity", 1, 512, PAPI_OK},
      {"disable", 0, 0, PAPI_OK},
  };
  for (const TraceCase& c : trace_cases) {
    EXPECT_EQ(PAPIrepro_set_trace(c.enable, c.capacity), c.expected)
        << c.name;
  }

  const std::string good =
      ::testing::TempDir() + "papirepro_capi_trace.json";
  struct DumpCase {
    const char* name;
    const char* path;
    int format;
    int expected;
  };
  const DumpCase dump_cases[] = {
      {"null path", nullptr, PAPIREPRO_TRACE_JSON, PAPI_EINVAL},
      {"empty path", "", PAPIREPRO_TRACE_JSON, PAPI_EINVAL},
      {"unknown format", good.c_str(), 7, PAPI_EINVAL},
      {"negative format", good.c_str(), -1, PAPI_EINVAL},
      {"unwritable path", "/nonexistent-dir/papirepro/trace.json",
       PAPIREPRO_TRACE_JSON, PAPI_ESYS},
      {"json ok", good.c_str(), PAPIREPRO_TRACE_JSON, PAPI_OK},
      {"csv ok", good.c_str(), PAPIREPRO_TRACE_CSV, PAPI_OK},
  };
  for (const DumpCase& c : dump_cases) {
    EXPECT_EQ(PAPIrepro_dump_trace(c.path, c.format), c.expected)
        << c.name;
  }
  std::remove(good.c_str());
}

TEST_F(CapiErrors, TelemetrySnapshotAndTraceDump) {
  ASSERT_EQ(PAPIrepro_set_trace(1, 0), PAPI_OK);
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_INS), PAPI_OK);
  ASSERT_EQ(PAPI_start(es), PAPI_OK);
  PAPIrepro_sim_run(sim_, -1);
  long long v = 0;
  ASSERT_EQ(PAPI_read(es, &v), PAPI_OK);
  ASSERT_EQ(PAPI_stop(es, &v), PAPI_OK);

  PAPIrepro_telemetry_t t = {};
  ASSERT_EQ(PAPIrepro_get_telemetry(&t), PAPI_OK);
  EXPECT_EQ(t.enabled, 1);
  EXPECT_EQ(t.trace_enabled, 1);
  EXPECT_EQ(t.starts, 1);
  EXPECT_EQ(t.stops, 1);
  EXPECT_GE(t.reads, 1);
  EXPECT_GE(t.threads_seen, 1);
  // start + read + stop all landed in the (default-capacity) ring, and
  // nothing has been drained yet: everything accepted is still buffered.
  EXPECT_GE(t.trace_records, 3);
  EXPECT_EQ(t.trace_drops, 0);
  EXPECT_EQ(t.trace_records_buffered, t.trace_records);

  const std::string path =
      ::testing::TempDir() + "papirepro_capi_dump.json";
  ASSERT_EQ(PAPIrepro_dump_trace(path.c_str(), PAPIREPRO_TRACE_JSON),
            PAPI_OK);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"start\""), std::string::npos);
  EXPECT_NE(json.find("\"stop\""), std::string::npos);
  std::remove(path.c_str());
}

// ---- fault-injection extension surface ----

TEST_F(CapiErrors, FaultPlanArgumentValidation) {
  EXPECT_EQ(PAPIrepro_set_fault_plan(nullptr), PAPI_EINVAL);
  PAPIrepro_fault_plan_t plan = {};
  plan.program_fail_times = -1;
  EXPECT_EQ(PAPIrepro_set_fault_plan(&plan), PAPI_EINVAL);
  plan = {};
  plan.fault_code = 3;  // PAPI codes are <= 0
  EXPECT_EQ(PAPIrepro_set_fault_plan(&plan), PAPI_EINVAL);
  plan = {};
  plan.counter_width_bits = -8;
  EXPECT_EQ(PAPIrepro_set_fault_plan(&plan), PAPI_EINVAL);
  plan = {};
  plan.target_component = -1;
  EXPECT_EQ(PAPIrepro_set_fault_plan(&plan), PAPI_EINVAL);
  plan = {};
  plan.target_component = PAPIREPRO_MAX_COMPONENTS + 1;
  EXPECT_EQ(PAPIrepro_set_fault_plan(&plan), PAPI_EINVAL);
  // Initialized without a decorator: the plan cannot be installed now.
  plan = {};
  EXPECT_EQ(PAPIrepro_set_fault_plan(&plan), PAPI_EISRUN);
  EXPECT_EQ(PAPIrepro_inject_faults(1), PAPI_ENOSUPP);
}

TEST_F(CapiErrors, SetRetryValidatesAttempts) {
  EXPECT_EQ(PAPIrepro_set_retry(0, 0), PAPI_EINVAL);
  EXPECT_EQ(PAPIrepro_set_retry(-2, 0), PAPI_EINVAL);
  EXPECT_EQ(PAPIrepro_set_retry(3, 0), PAPI_OK);
}

TEST(CapiFaultInjection, StagedTransientFaultsRetriedToCorrectCounts) {
  PAPI_shutdown();
  PAPIrepro_sim_t* sim = PAPIrepro_sim_create("sim-x86", "saxpy", 10'000);
  ASSERT_NE(sim, nullptr);
  ASSERT_EQ(PAPIrepro_bind_sim(sim), PAPI_OK);
  // Stage the plan before init: two transient program() failures plus a
  // context-create hiccup, all absorbed by the default retry budget.
  PAPIrepro_fault_plan_t plan = {};
  plan.seed = 42;
  plan.program_fail_times = 2;
  plan.create_context_fail_times = 1;
  ASSERT_EQ(PAPIrepro_set_fault_plan(&plan), PAPI_OK);
  ASSERT_EQ(PAPIrepro_inject_faults(1), PAPI_OK);
  ASSERT_EQ(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);

  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_FMA_INS), PAPI_OK);
  ASSERT_EQ(PAPI_start(es), PAPI_OK);
  PAPIrepro_sim_run(sim, -1);
  long long v = 0;
  ASSERT_EQ(PAPI_stop(es, &v), PAPI_OK);
  EXPECT_EQ(v, 10'000);  // correct counts despite the faults
  PAPI_shutdown();
  PAPIrepro_sim_destroy(sim);
}

TEST(CapiFaultInjection, PermanentFaultSurfacesConfiguredCode) {
  PAPI_shutdown();
  PAPIrepro_sim_t* sim = PAPIrepro_sim_create("sim-x86", "saxpy", 10'000);
  ASSERT_NE(sim, nullptr);
  ASSERT_EQ(PAPIrepro_bind_sim(sim), PAPI_OK);
  PAPIrepro_fault_plan_t plan = {};
  plan.program_fail_times = 1 << 20;  // effectively permanent
  plan.fault_code = PAPI_ESYS;
  ASSERT_EQ(PAPIrepro_set_fault_plan(&plan), PAPI_OK);
  ASSERT_EQ(PAPIrepro_inject_faults(1), PAPI_OK);
  ASSERT_EQ(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);

  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_INS), PAPI_OK);
  // The injected substrate code comes back — not EINVAL, not a retry
  // artifact.
  EXPECT_EQ(PAPI_start(es), PAPI_ESYS);
  // Disabling injection at runtime heals the substrate immediately.
  ASSERT_EQ(PAPIrepro_inject_faults(0), PAPI_OK);
  ASSERT_EQ(PAPI_start(es), PAPI_OK);
  PAPIrepro_sim_run(sim, -1);
  long long v = 0;
  ASSERT_EQ(PAPI_stop(es, &v), PAPI_OK);
  EXPECT_GT(v, 0);
  PAPI_shutdown();
  PAPIrepro_sim_destroy(sim);
}

TEST(CapiFaultInjection, TargetedComponentFaultsLeaveOthersClean) {
  PAPI_shutdown();
  PAPIrepro_sim_t* sim = PAPIrepro_sim_create("sim-x86", "saxpy", 5'000);
  ASSERT_NE(sim, nullptr);
  ASSERT_EQ(PAPIrepro_bind_sim(sim), PAPI_OK);
  // Target the plan at the mem component only (target_component is
  // 1-based; 0 means wrap everything): a permanent start fault there
  // must not touch the cpu component's substrate.
  PAPIrepro_fault_plan_t plan = {};
  plan.start_fail_times = 1 << 20;
  plan.fault_code = PAPI_ESYS;
  plan.target_component = 2;  // component id 1: "mem"
  ASSERT_EQ(PAPIrepro_set_fault_plan(&plan), PAPI_OK);
  ASSERT_EQ(PAPIrepro_inject_faults(1), PAPI_OK);
  ASSERT_EQ(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);

  int cpu_set = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&cpu_set), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(cpu_set, PAPI_TOT_INS), PAPI_OK);
  ASSERT_EQ(PAPI_start(cpu_set), PAPI_OK);  // cpu is undecorated
  long long v = 0;
  ASSERT_EQ(PAPI_stop(cpu_set, &v), PAPI_OK);

  int mem_set = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&mem_set), PAPI_OK);
  ASSERT_EQ(PAPI_add_named_event(mem_set, "mem::L2_MISSES"), PAPI_OK);
  EXPECT_EQ(PAPI_start(mem_set), PAPI_ESYS);
  // Disabling injection heals the targeted component too.
  ASSERT_EQ(PAPIrepro_inject_faults(0), PAPI_OK);
  ASSERT_EQ(PAPI_start(mem_set), PAPI_OK);
  ASSERT_EQ(PAPI_stop(mem_set, &v), PAPI_OK);
  PAPI_shutdown();
  PAPIrepro_sim_destroy(sim);
}

TEST(CapiFaultInjection, NarrowCounterRunMatchesFullWidth) {
  auto run_width = [](int width) {
    PAPI_shutdown();
    PAPIrepro_sim_t* sim =
        PAPIrepro_sim_create("sim-x86", "saxpy", 20'000);
    EXPECT_NE(sim, nullptr);
    EXPECT_EQ(PAPIrepro_bind_sim(sim), PAPI_OK);
    PAPIrepro_fault_plan_t plan = {};
    plan.counter_width_bits = width;
    EXPECT_EQ(PAPIrepro_set_fault_plan(&plan), PAPI_OK);
    EXPECT_EQ(PAPIrepro_inject_faults(1), PAPI_OK);
    EXPECT_EQ(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);
    int es = PAPI_NULL;
    EXPECT_EQ(PAPI_create_eventset(&es), PAPI_OK);
    EXPECT_EQ(PAPI_add_event(es, PAPI_TOT_INS), PAPI_OK);
    EXPECT_EQ(PAPI_start(es), PAPI_OK);
    // Periodic reads keep the folding cadence ahead of the wrap period.
    long long v = 0;
    while (!PAPIrepro_sim_halted(sim)) {
      PAPIrepro_sim_run(sim, 20'000);
      EXPECT_EQ(PAPI_read(es, &v), PAPI_OK);
    }
    long long total = 0;
    EXPECT_EQ(PAPI_stop(es, &total), PAPI_OK);
    PAPI_shutdown();
    PAPIrepro_sim_destroy(sim);
    return total;
  };
  const long long narrow = run_width(17);  // wraps every 131072 counts
  const long long full = run_width(64);
  EXPECT_EQ(narrow, full);
  EXPECT_GT(full, 1 << 17);  // the narrow register really wrapped
}

TEST(CapiFaultInjection, RetryKnobBoundsAttempts) {
  PAPI_shutdown();
  PAPIrepro_sim_t* sim = PAPIrepro_sim_create("sim-x86", "saxpy", 1'000);
  ASSERT_NE(sim, nullptr);
  ASSERT_EQ(PAPIrepro_bind_sim(sim), PAPI_OK);
  PAPIrepro_fault_plan_t plan = {};
  plan.program_fail_times = 1;
  ASSERT_EQ(PAPIrepro_set_fault_plan(&plan), PAPI_OK);
  ASSERT_EQ(PAPIrepro_inject_faults(1), PAPI_OK);
  ASSERT_EQ(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);
  // With retries disabled the one transient surfaces...
  ASSERT_EQ(PAPIrepro_set_retry(1, 0), PAPI_OK);
  int es = PAPI_NULL;
  ASSERT_EQ(PAPI_create_eventset(&es), PAPI_OK);
  ASSERT_EQ(PAPI_add_event(es, PAPI_TOT_INS), PAPI_OK);
  EXPECT_EQ(PAPI_start(es), PAPI_ECNFLCT);  // default injected code
  // ...and the next attempt (script exhausted) goes through.
  EXPECT_EQ(PAPI_start(es), PAPI_OK);
  long long v = 0;
  ASSERT_EQ(PAPI_stop(es, &v), PAPI_OK);
  PAPI_shutdown();
  PAPIrepro_sim_destroy(sim);
}

}  // namespace
