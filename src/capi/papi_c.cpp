// C bridge: global-state shim over the C++ library, mirroring real
// PAPI's process-global model.  Thread-aware since the CounterContext
// refactor: the Library keys the running-EventSet rule by thread, and
// the bridge's own maps (overflow handlers, profil state) are mutex-
// guarded.  Init/shutdown remain single-threaded operations, as in real
// PAPI.
#include "capi/papi.h"

#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "aggregate/collector.h"
#include "aggregate/shm_region.h"
#include "aggregate/wire.h"
#include "core/highlevel.h"
#include "core/library.h"
#include "sim/comm.h"
#include "sim/workload_registry.h"
#include "substrate/component_substrates.h"
#include "substrate/fault_substrate.h"
#include "substrate/host_substrate.h"
#include "substrate/sim_substrate.h"

namespace {

using papirepro::Error;
using papirepro::Status;
namespace papi = papirepro::papi;
namespace sim = papirepro::sim;
namespace pmu = papirepro::pmu;

int to_code(Status s) { return static_cast<int>(s.error()); }
int to_code(Error e) { return static_cast<int>(e); }

std::optional<papi::EventId> decode_event(int event_code);

struct ProfilState {
  std::unique_ptr<papi::ProfileBuffer> buffer;
  unsigned int* user_buf = nullptr;
  unsigned int bufsiz = 0;
  int event_code = 0;
};

struct GlobalState {
  std::unique_ptr<papi::Library> library;
  std::unique_ptr<papi::HighLevel> high_level;
  PAPIrepro_sim* bound_sim = nullptr;
  /// Non-CPU components a simulator-bound init registers: the memory
  /// bandwidth substrate over the bound machine (raw pointer kept so
  /// PAPIrepro_sim_bind_thread can bind per-thread machines on it too)
  /// and a one-rank CommWorld backing the "net" component.  The world
  /// must outlive the library (the net substrate references it), so it
  /// is destroyed after library.reset() in PAPI_shutdown.
  papi::MemBandwidthSubstrate* mem_substrate = nullptr;  // owned by library
  std::unique_ptr<sim::CommWorld> comm_world;
  /// Fault-injection staging: the plan (and switch state) to install as
  /// a substrate decorator at the next PAPI_library_init.
  /// pending_fault_target selects which components get wrapped
  /// (0 = all, N > 0 = only component N-1).
  std::optional<papi::FaultPlan> pending_fault_plan;
  bool pending_fault_enabled = false;
  int pending_fault_target = 0;
  /// Installed decorators, one per wrapped component (owned by library).
  std::vector<papi::FaultInjectingSubstrate*> fault_substrates;
  /// Guards the two bridge maps below (handlers fire on whichever thread
  /// drives the overflowing context).
  std::mutex bridge_mutex;
  std::map<int, PAPI_overflow_handler_t> overflow_handlers;
  std::map<int, ProfilState> profil_states;  // keyed by event set
};

GlobalState& g() {
  static GlobalState state;
  return state;
}

std::optional<papi::EventId> decode_event(int event_code) {
  const auto code = static_cast<std::uint32_t>(event_code);
  const std::uint32_t component = papi::event_code_component(code);
  const std::size_t registered =
      g().library != nullptr ? g().library->num_components() : 1;
  if (const auto p = papi::preset_from_code(code)) {
    // Preset codes with component bits naming an unregistered component
    // are not events (PAPI_ENOEVNT), same as before components existed.
    if (component >= registered) return std::nullopt;
    return papi::EventId::preset(*p, component);
  }
  if (component != 0 && component < registered) {
    return papi::EventId::native(code & ~papi::kEventComponentMask,
                                 component);
  }
  // Legacy path: the whole code is a component-0 native.  CPU native
  // codes predate the component field and may use its bits; codes whose
  // component bits name no registered component land here too and fail
  // event resolution exactly as they always did.
  return papi::EventId::native(code);
}

void flush_profil(int event_set) {
  const std::lock_guard<std::mutex> lock(g().bridge_mutex);
  auto it = g().profil_states.find(event_set);
  if (it == g().profil_states.end() || it->second.user_buf == nullptr) {
    return;
  }
  const auto& buckets = it->second.buffer->buckets();
  for (unsigned int i = 0; i < it->second.bufsiz && i < buckets.size();
       ++i) {
    it->second.user_buf[i] = buckets[i];
  }
}

}  // namespace

struct PAPIrepro_sim {
  sim::Workload workload;
  std::unique_ptr<sim::Machine> machine;
  const pmu::PlatformDescription* platform = nullptr;
  papi::SimSubstrate* substrate = nullptr;  // owned by the Library
};

extern "C" {

PAPIrepro_sim_t* PAPIrepro_sim_create(const char* platform,
                                      const char* workload, long long n) {
  if (platform == nullptr || workload == nullptr) return nullptr;
  const pmu::PlatformDescription* p = pmu::find_platform(platform);
  if (p == nullptr) return nullptr;
  auto w = sim::make_workload(workload, n);
  if (!w.has_value()) return nullptr;

  auto* s = new PAPIrepro_sim;
  s->platform = p;
  s->workload = std::move(*w);
  s->machine =
      std::make_unique<sim::Machine>(s->workload.program, p->machine);
  if (s->workload.setup) s->workload.setup(*s->machine);
  return s;
}

long long PAPIrepro_sim_run(PAPIrepro_sim_t* s,
                            long long max_instructions) {
  if (s == nullptr || s->machine == nullptr) return 0;
  const auto budget =
      max_instructions <= 0
          ? std::numeric_limits<std::uint64_t>::max()
          : static_cast<std::uint64_t>(max_instructions);
  return static_cast<long long>(s->machine->run(budget).instructions);
}

int PAPIrepro_sim_halted(const PAPIrepro_sim_t* s) {
  return (s != nullptr && s->machine != nullptr && s->machine->halted())
             ? 1
             : 0;
}

void PAPIrepro_sim_destroy(PAPIrepro_sim_t* s) {
  if (g().bound_sim == s) {
    PAPI_shutdown();
  }
  delete s;
}

int PAPIrepro_bind_sim(PAPIrepro_sim_t* s) {
  if (s == nullptr) return PAPI_EINVAL;
  if (g().library != nullptr) return PAPI_EISRUN;
  g().bound_sim = s;
  return PAPI_OK;
}

int PAPIrepro_sim_bind_thread(PAPIrepro_sim_t* s) {
  if (s == nullptr || s->machine == nullptr) return PAPI_EINVAL;
  if (g().library == nullptr) return PAPI_ENOINIT;
  if (g().bound_sim == nullptr || g().bound_sim->substrate == nullptr) {
    return PAPI_ENOSUPP;  // host substrate has no machines to bind
  }
  if (s->platform != g().bound_sim->platform) return PAPI_ECNFLCT;
  g().bound_sim->substrate->bind_thread_machine(*s->machine);
  // The memory component mirrors the CPU binding: this thread's mem::
  // counters then read the same machine's cache hierarchy.
  if (g().mem_substrate != nullptr) {
    g().mem_substrate->bind_thread_machine(*s->machine);
  }
  return PAPI_OK;
}

int PAPIrepro_set_estimation(int enable) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  if (g().bound_sim == nullptr || g().bound_sim->substrate == nullptr) {
    return PAPI_ENOSUPP;
  }
  return to_code(
      g().bound_sim->substrate->set_estimation(enable != 0));
}

int PAPIrepro_set_fault_plan(const PAPIrepro_fault_plan_t* plan) {
  if (plan == nullptr) return PAPI_EINVAL;
  if (plan->counter_width_bits < 0 || plan->fault_code > 0 ||
      plan->create_context_fail_times < 0 ||
      plan->program_fail_times < 0 || plan->start_fail_times < 0 ||
      plan->read_fail_times < 0 || plan->add_timer_fail_times < 0 ||
      plan->create_context_fail_after < 0 ||
      plan->program_fail_after < 0 || plan->start_fail_after < 0 ||
      plan->read_fail_after < 0 || plan->add_timer_fail_after < 0 ||
      plan->target_component < 0 ||
      plan->target_component > PAPIREPRO_MAX_COMPONENTS) {
    return PAPI_EINVAL;
  }
  papi::FaultPlan converted;
  converted.seed = plan->seed;
  const Error code = plan->fault_code == 0
                         ? Error::kConflict
                         : static_cast<Error>(plan->fault_code);
  auto script = [code](int fail_times, double probability,
                       int fail_after) {
    return papi::FaultScript{fail_times, probability, code, fail_after};
  };
  converted.at(papi::FaultSite::kCreateContext) =
      script(plan->create_context_fail_times, 0.0,
             plan->create_context_fail_after);
  converted.at(papi::FaultSite::kProgram) =
      script(plan->program_fail_times, plan->program_fail_probability,
             plan->program_fail_after);
  converted.at(papi::FaultSite::kStart) =
      script(plan->start_fail_times, 0.0, plan->start_fail_after);
  converted.at(papi::FaultSite::kRead) =
      script(plan->read_fail_times, plan->read_fail_probability,
             plan->read_fail_after);
  converted.at(papi::FaultSite::kAddTimer) =
      script(plan->add_timer_fail_times, 0.0,
             plan->add_timer_fail_after);
  converted.counter_width_bits =
      plan->counter_width_bits == 0
          ? 64u
          : static_cast<std::uint32_t>(plan->counter_width_bits);
  converted.timer_drop_probability = plan->timer_drop_probability;
  converted.timer_extra_delay_cycles = plan->timer_extra_delay_cycles;
  converted.read_rewind_after = plan->read_rewind_after;
  converted.read_rewind_times = plan->read_rewind_times;
  converted.read_rewind_delta = plan->read_rewind_delta;

  if (g().library == nullptr) {
    g().pending_fault_plan = converted;
    g().pending_fault_target = plan->target_component;
    return PAPI_OK;
  }
  if (g().fault_substrates.empty()) return PAPI_EISRUN;
  // Post-init the decorated set is fixed; re-planning rewinds every
  // installed decorator's scripts (target_component only selects what
  // gets wrapped at init).
  for (papi::FaultInjectingSubstrate* fs : g().fault_substrates) {
    fs->set_plan(converted);
  }
  return PAPI_OK;
}

int PAPIrepro_inject_faults(int enable) {
  if (g().library == nullptr) {
    // Arm the staged plan; stage a default (no-fault) plan if none so
    // the decorator is installed at init and can be re-planned later.
    if (!g().pending_fault_plan.has_value()) {
      g().pending_fault_plan = papi::FaultPlan{};
    }
    g().pending_fault_enabled = enable != 0;
    return PAPI_OK;
  }
  if (g().fault_substrates.empty()) return PAPI_ENOSUPP;
  for (papi::FaultInjectingSubstrate* fs : g().fault_substrates) {
    fs->set_enabled(enable != 0);
  }
  return PAPI_OK;
}

int PAPIrepro_set_retry(int max_attempts,
                        unsigned long long backoff_usec) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  return to_code(g().library->set_retry_policy(
      {max_attempts, static_cast<std::uint64_t>(backoff_usec)}));
}

int PAPIrepro_set_sampling(int async_enable,
                           unsigned long long ring_capacity) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  papi::SamplingConfig config = g().library->sampling().config();
  config.async = async_enable != 0;
  if (ring_capacity != 0) {
    config.ring_capacity = static_cast<std::size_t>(ring_capacity);
  }
  return to_code(g().library->configure_sampling(config));
}

int PAPIrepro_get_telemetry(PAPIrepro_telemetry_t* out) {
  if (out == nullptr) return PAPI_EINVAL;
  if (g().library == nullptr) return PAPI_ENOINIT;
  const papi::TelemetrySnapshot snap = g().library->telemetry_snapshot();
  using TC = papi::TelemetryCounter;
  const auto counter = [&snap](TC c) {
    return static_cast<long long>(snap.value(c));
  };
  out->starts = counter(TC::kStarts);
  out->stops = counter(TC::kStops);
  out->reads = counter(TC::kReads);
  out->accums = counter(TC::kAccums);
  out->resets = counter(TC::kResets);
  out->mux_rotations = counter(TC::kMuxRotations);
  out->retry_attempts = counter(TC::kRetryAttempts);
  out->retry_exhaustions = counter(TC::kRetryExhaustions);
  out->degradations = counter(TC::kDegradations);
  out->faults_injected = counter(TC::kFaultsInjected);
  out->samples_enqueued = counter(TC::kSamplesEnqueued);
  out->samples_dropped = counter(TC::kSamplesDropped);
  out->samples_dispatched = counter(TC::kSamplesDispatched);
  out->overflows_suppressed = counter(TC::kOverflowsSuppressed);
  out->trace_records = counter(TC::kTraceRecords);
  out->trace_drops = counter(TC::kTraceDrops);
  out->health_transitions = counter(TC::kHealthTransitions);
  out->health_fail_fasts = counter(TC::kHealthFailFasts);
  out->health_probes = counter(TC::kHealthProbes);
  out->sanity_faults = counter(TC::kSanityFaults);
  out->collector_frames = counter(TC::kCollectorFrames);
  out->collector_decode_errors = counter(TC::kCollectorDecodeErrors);
  out->collector_reductions = counter(TC::kCollectorReductions);
  out->threads_seen = static_cast<long long>(snap.threads_seen);
  out->trace_records_buffered =
      static_cast<long long>(snap.trace_records_buffered);
  out->sampling_sweeps = static_cast<long long>(snap.sampling_sweeps);
  out->sampling_flushes = static_cast<long long>(snap.sampling_flushes);
  out->sampling_rings_active =
      static_cast<long long>(snap.sampling_rings_active);
  out->sampling_ring_capacity =
      static_cast<long long>(snap.sampling_ring_capacity);
  out->sampling_async = snap.sampling_async ? 1 : 0;
  out->enabled = snap.enabled ? 1 : 0;
  out->trace_enabled = snap.trace_enabled ? 1 : 0;
  out->num_components = static_cast<int>(snap.num_components);
  for (int i = 0; i < PAPIREPRO_MAX_COMPONENTS; ++i) {
    const auto comp = static_cast<std::uint32_t>(i);
    using CC = papi::ComponentCounter;
    out->component_starts[i] =
        static_cast<long long>(snap.component_value(comp, CC::kStarts));
    out->component_stops[i] =
        static_cast<long long>(snap.component_value(comp, CC::kStops));
    out->component_reads[i] =
        static_cast<long long>(snap.component_value(comp, CC::kReads));
  }
  return PAPI_OK;
}

int PAPI_num_components(void) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  return static_cast<int>(g().library->num_components());
}

int PAPI_get_component_info(int id, PAPIrepro_component_info_t* out) {
  if (out == nullptr) return PAPI_EINVAL;
  if (g().library == nullptr) return PAPI_ENOINIT;
  if (id < 0) return PAPI_ENOCMP;
  auto info =
      g().library->component_info(static_cast<std::uint32_t>(id));
  if (!info.ok()) return to_code(info.error());
  out->id = static_cast<int>(info.value().id);
  std::snprintf(out->name, sizeof out->name, "%s",
                info.value().name.c_str());
  std::snprintf(out->description, sizeof out->description, "%s",
                info.value().description.c_str());
  out->num_counters = static_cast<int>(info.value().num_counters);
  out->enabled = info.value().enabled ? 1 : 0;
  return PAPI_OK;
}

int PAPIrepro_set_component_enabled(int id, int enable) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  if (id < 0) return PAPI_ENOCMP;
  return to_code(g().library->set_component_enabled(
      static_cast<std::uint32_t>(id), enable != 0));
}

int PAPIrepro_get_component_health(int component,
                                   PAPIrepro_component_health_t* out) {
  if (out == nullptr) return PAPI_EINVAL;
  if (g().library == nullptr) return PAPI_ENOINIT;
  if (component < 0) return PAPI_ENOCMP;
  auto health = g().library->component_health(
      static_cast<std::uint32_t>(component));
  if (!health.ok()) return to_code(health.error());
  const papi::ComponentHealth& h = health.value();
  out->component = static_cast<int>(h.component);
  out->state = static_cast<int>(h.state);
  out->consecutive_exhaustions =
      static_cast<int>(h.consecutive_exhaustions);
  out->window_ops = static_cast<int>(h.window_ops);
  out->window_failures = static_cast<int>(h.window_failures);
  out->quarantines = static_cast<long long>(h.quarantines);
  out->fail_fasts = static_cast<long long>(h.fail_fasts);
  out->probes = static_cast<long long>(h.probes);
  out->transitions = static_cast<long long>(h.transitions);
  out->cooldown_usec = static_cast<long long>(h.cooldown_usec);
  out->last_error = to_code(h.last_error);
  return PAPI_OK;
}

int PAPIrepro_set_health_policy(const PAPIrepro_health_policy_t* policy) {
  if (policy == nullptr) return PAPI_EINVAL;
  if (g().library == nullptr) return PAPI_ENOINIT;
  if (policy->max_consecutive_exhaustions < 1 ||
      policy->window_min_ops < 0 || policy->probation_successes < 1 ||
      policy->probe_cooldown_usec < 0 ||
      policy->probe_cooldown_max_usec < 0) {
    return PAPI_EINVAL;
  }
  papi::HealthPolicy converted;
  converted.enabled = policy->enabled != 0;
  converted.max_consecutive_exhaustions =
      static_cast<std::uint32_t>(policy->max_consecutive_exhaustions);
  converted.window_min_ops =
      static_cast<std::uint32_t>(policy->window_min_ops);
  converted.failure_rate_threshold = policy->failure_rate_threshold;
  converted.probation_successes =
      static_cast<std::uint32_t>(policy->probation_successes);
  converted.probe_cooldown_usec =
      static_cast<std::uint64_t>(policy->probe_cooldown_usec);
  converted.probe_cooldown_max_usec =
      static_cast<std::uint64_t>(policy->probe_cooldown_max_usec);
  return to_code(g().library->set_health_policy(converted));
}

int PAPIrepro_get_health_policy(PAPIrepro_health_policy_t* out) {
  if (out == nullptr) return PAPI_EINVAL;
  if (g().library == nullptr) return PAPI_ENOINIT;
  const papi::HealthPolicy p = g().library->health_policy();
  out->enabled = p.enabled ? 1 : 0;
  out->max_consecutive_exhaustions =
      static_cast<int>(p.max_consecutive_exhaustions);
  out->window_min_ops = static_cast<int>(p.window_min_ops);
  out->failure_rate_threshold = p.failure_rate_threshold;
  out->probation_successes = static_cast<int>(p.probation_successes);
  out->probe_cooldown_usec =
      static_cast<long long>(p.probe_cooldown_usec);
  out->probe_cooldown_max_usec =
      static_cast<long long>(p.probe_cooldown_max_usec);
  return PAPI_OK;
}

int PAPIrepro_set_trace(int enable, unsigned long long ring_capacity) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  return to_code(g().library->set_trace(
      enable != 0, static_cast<std::size_t>(ring_capacity)));
}

int PAPIrepro_dump_trace(const char* path, int format) {
  if (path == nullptr || *path == '\0') return PAPI_EINVAL;
  if (format != PAPIREPRO_TRACE_JSON && format != PAPIREPRO_TRACE_CSV) {
    return PAPI_EINVAL;
  }
  if (g().library == nullptr) return PAPI_ENOINIT;
  const std::string text = g().library->dump_trace(
      format == PAPIREPRO_TRACE_JSON ? papi::TraceFormat::kChromeJson
                                     : papi::TraceFormat::kCsv);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return PAPI_ESYS;
  file << text;
  file.flush();
  return file ? PAPI_OK : PAPI_ESYS;
}

namespace {
/// Wraps `inner` in the staged fault decorator when the pending plan
/// targets `component_id` (target 0 = every component, N = component
/// N-1 only).  Decorators are owned by the library via the component
/// registry; raw pointers are kept for re-planning.
std::unique_ptr<papi::Substrate> maybe_wrap_faults(
    std::unique_ptr<papi::Substrate> inner, int component_id) {
  if (!g().pending_fault_plan.has_value()) return inner;
  const int target = g().pending_fault_target;
  if (target != 0 && target - 1 != component_id) return inner;
  auto wrapped = std::make_unique<papi::FaultInjectingSubstrate>(
      std::move(inner), *g().pending_fault_plan);
  wrapped->set_enabled(g().pending_fault_enabled);
  g().fault_substrates.push_back(wrapped.get());
  return wrapped;
}
}  // namespace

int PAPI_library_init(int version) {
  if (version != PAPI_VER_CURRENT) return PAPI_EINVAL;
  if (g().library != nullptr) return PAPI_VER_CURRENT;  // idempotent
  std::unique_ptr<papi::Substrate> substrate;
  if (g().bound_sim != nullptr) {
    auto sub = std::make_unique<papi::SimSubstrate>(
        *g().bound_sim->machine, *g().bound_sim->platform);
    g().bound_sim->substrate = sub.get();
    substrate = std::move(sub);
  } else {
    substrate = std::make_unique<papi::HostSubstrate>();
  }
  substrate = maybe_wrap_faults(std::move(substrate), /*component_id=*/0);
  g().library = std::make_unique<papi::Library>(std::move(substrate));

  if (g().bound_sim != nullptr) {
    // A simulator-bound library gets the non-CPU components: "mem"
    // (uncore bandwidth over the bound machine's cache hierarchy) and
    // "net" (message counters over a one-rank CommWorld on the same
    // machine — rank 0 sending to itself exercises the counters;
    // multi-rank programs use the C++ API's CommWorld directly).
    auto mem = std::make_unique<papi::MemBandwidthSubstrate>(
        *g().bound_sim->machine);
    g().mem_substrate = mem.get();
    (void)g().library->register_component(
        "mem", "simulated memory/uncore bandwidth counters",
        maybe_wrap_faults(std::move(mem), /*component_id=*/1));

    g().comm_world = std::make_unique<sim::CommWorld>(
        std::vector<sim::Machine*>{g().bound_sim->machine.get()});
    (void)g().library->register_component(
        "net", "simulated network message counters",
        maybe_wrap_faults(
            std::make_unique<papi::NetworkSubstrate>(*g().comm_world),
            /*component_id=*/2));
  }

  g().high_level = std::make_unique<papi::HighLevel>(*g().library);
  return PAPI_VER_CURRENT;
}

int PAPI_is_initialized(void) { return g().library != nullptr ? 1 : 0; }

void PAPI_shutdown(void) {
  g().high_level.reset();
  {
    const std::lock_guard<std::mutex> lock(g().bridge_mutex);
    g().overflow_handlers.clear();
    g().profil_states.clear();
  }
  if (g().bound_sim != nullptr) g().bound_sim->substrate = nullptr;
  g().fault_substrates.clear();
  g().mem_substrate = nullptr;
  g().library.reset();
  // After the library (and with it the net substrate): the world's
  // probe handlers restore in its destructor, and the substrate must
  // not outlive the world it references.
  g().comm_world.reset();
  g().bound_sim = nullptr;
  g().pending_fault_plan.reset();
  g().pending_fault_enabled = false;
  g().pending_fault_target = 0;
}

const char* PAPI_strerror(int code) {
  return papirepro::to_string(static_cast<Error>(code)).data();
}

int PAPI_num_hwctrs(void) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  return static_cast<int>(g().library->num_counters());
}

int PAPI_thread_init(unsigned long (*id_fn)(void)) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  if (id_fn == nullptr) return PAPI_EINVAL;
  return to_code(g().library->thread_init(id_fn));
}

unsigned long PAPI_thread_id(void) {
  if (g().library == nullptr) return static_cast<unsigned long>(-1);
  auto id = g().library->thread_id();
  return id.ok() ? id.value() : static_cast<unsigned long>(-1);
}

int PAPI_register_thread(void) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  return to_code(g().library->register_thread());
}

int PAPI_unregister_thread(void) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  return to_code(g().library->unregister_thread());
}

int PAPI_num_threads(void) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  return static_cast<int>(g().library->num_threads());
}

int PAPI_query_event(int event_code) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  const auto id = decode_event(event_code);
  if (!id) return PAPI_ENOEVNT;
  return g().library->query_event(*id) ? PAPI_OK : PAPI_ENOEVNT;
}

int PAPI_event_name_to_code(const char* name, int* event_code) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  if (name == nullptr || event_code == nullptr) return PAPI_EINVAL;
  auto id = g().library->event_from_name(name);
  if (!id.ok()) return to_code(id.error());
  *event_code = static_cast<int>(id.value().code());
  return PAPI_OK;
}

int PAPI_event_code_to_name(int event_code, char* out, int len) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  if (out == nullptr || len <= 0) return PAPI_EINVAL;
  const auto id = decode_event(event_code);
  if (!id) return PAPI_ENOEVNT;
  auto name = g().library->event_name(*id);
  if (!name.ok()) return to_code(name.error());
  std::snprintf(out, static_cast<std::size_t>(len), "%s",
                name.value().c_str());
  return PAPI_OK;
}

int PAPI_create_eventset(int* event_set) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  if (event_set == nullptr) return PAPI_EINVAL;
  auto handle = g().library->create_event_set();
  if (!handle.ok()) return to_code(handle.error());
  *event_set = handle.value();
  return PAPI_OK;
}

int PAPI_destroy_eventset(int* event_set) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  if (event_set == nullptr) return PAPI_EINVAL;
  const Status s = g().library->destroy_event_set(*event_set);
  if (s.ok()) {
    const std::lock_guard<std::mutex> lock(g().bridge_mutex);
    g().profil_states.erase(*event_set);
    g().overflow_handlers.erase(*event_set);
    *event_set = PAPI_NULL;
  }
  return to_code(s);
}

namespace {
papirepro::Result<papi::EventSet*> lookup(int event_set) {
  if (g().library == nullptr) return Error::kNoInit;
  return g().library->event_set(event_set);
}

/// Copies batched-read entries into the caller's C rows.
void fill_entries(std::span<const papi::SnapshotEntry> in,
                  PAPIrepro_snapshot_t* out) {
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i].event_set = in[i].handle;
    out[i].first_value = static_cast<int>(in[i].first_value);
    out[i].num_values = static_cast<int>(in[i].num_values);
    out[i].status = to_code(in[i].status);
    out[i].flags = static_cast<int>(in[i].flags);
    out[i].pub_cycles = static_cast<long long>(in[i].pub_cycles);
  }
}
}  // namespace

int PAPI_add_event(int event_set, int event_code) {
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  const auto id = decode_event(event_code);
  if (!id) return PAPI_ENOEVNT;
  return to_code(set.value()->add_event(*id));
}

int PAPI_add_named_event(int event_set, const char* name) {
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  if (name == nullptr) return PAPI_EINVAL;
  return to_code(set.value()->add_named(name));
}

int PAPI_remove_event(int event_set, int event_code) {
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  const auto id = decode_event(event_code);
  if (!id) return PAPI_ENOEVNT;
  return to_code(set.value()->remove_event(*id));
}

int PAPI_num_events(int event_set) {
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  return static_cast<int>(set.value()->num_events());
}

int PAPI_set_multiplex(int event_set) {
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  return to_code(set.value()->enable_multiplex());
}

int PAPI_set_domain(int event_set, int domain) {
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  return to_code(
      set.value()->set_domain(static_cast<std::uint32_t>(domain)));
}

int PAPI_start(int event_set) {
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  return to_code(set.value()->start());
}

int PAPI_stop(int event_set, long long* values) {
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  std::span<long long> out;
  if (values != nullptr) {
    out = {values, set.value()->num_events()};
  }
  const Status s = set.value()->stop(out);
  if (s.ok()) flush_profil(event_set);
  return to_code(s);
}

int PAPI_read(int event_set, long long* values) {
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  if (values == nullptr) return PAPI_EINVAL;
  return to_code(
      set.value()->read({values, set.value()->num_events()}));
}

int PAPIrepro_read_ex(int event_set, long long* values, int* flags) {
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  if (values == nullptr || flags == nullptr) return PAPI_EINVAL;
  static_assert(sizeof(int) == sizeof(std::uint32_t),
                "flag marshalling assumes 32-bit int");
  const std::size_t n = set.value()->num_events();
  return to_code(set.value()->read_ex(
      {values, n}, {reinterpret_cast<std::uint32_t*>(flags), n}));
}

int PAPIrepro_read_many(const int* event_sets, int count, long long* values,
                        int values_capacity,
                        PAPIrepro_snapshot_t* entries) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  if (event_sets == nullptr || values == nullptr || entries == nullptr ||
      count <= 0 || values_capacity < 0) {
    return PAPI_EINVAL;
  }
  // Marshalling scratch is thread-local and reused: steady-state calls
  // allocate nothing once the capacity is warm.
  thread_local std::vector<papi::SnapshotEntry> scratch;
  scratch.assign(static_cast<std::size_t>(count), {});
  const Status s = g().library->read_many_handles(
      {event_sets, static_cast<std::size_t>(count)},
      {values, static_cast<std::size_t>(values_capacity)}, scratch);
  if (!s.ok()) return to_code(s);
  fill_entries(scratch, entries);
  return PAPI_OK;
}

int PAPIrepro_snapshot_all(PAPIrepro_snapshot_t* entries, int max_entries,
                           long long* values, int values_capacity) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  if (entries == nullptr || values == nullptr || max_entries < 0 ||
      values_capacity < 0) {
    return PAPI_EINVAL;
  }
  thread_local std::vector<papi::SnapshotEntry> scratch;
  scratch.assign(static_cast<std::size_t>(max_entries), {});
  std::size_t entries_used = 0;
  const Status s = g().library->snapshot_all(
      {scratch.data(), static_cast<std::size_t>(max_entries)},
      {values, static_cast<std::size_t>(values_capacity)}, &entries_used,
      nullptr);
  if (!s.ok()) return to_code(s);
  fill_entries({scratch.data(), entries_used}, entries);
  return static_cast<int>(entries_used);
}

}  /* extern "C" */

namespace {

namespace aggregate = papirepro::aggregate;

/// One C-visible collector: the reducer, its seqlock-published region,
/// and cursors for attributing stat deltas to the library's telemetry.
/// The Collector itself holds no telemetry pointer — the library may be
/// shut down and re-initialized while collectors live, so attribution
/// happens by delta at each call instead of through a stored registry.
struct CollectorState {
  explicit CollectorState(const aggregate::CollectorConfig& config)
      : collector(config) {}
  aggregate::Collector collector;
  aggregate::SharedSnapshotRegion region;
  /// Serializes ingest/reduce (the Collector is single-writer; the
  /// region handles concurrent readers on its own).
  std::mutex writer_mutex;
  std::uint64_t frames_attributed = 0;
  std::uint64_t errors_attributed = 0;
  std::uint64_t reductions_attributed = 0;
};

struct CollectorRegistry {
  std::mutex mutex;
  std::map<int, std::shared_ptr<CollectorState>> map;
  int next_handle = 0;
};

CollectorRegistry& collectors() {
  static CollectorRegistry r;
  return r;
}

std::shared_ptr<CollectorState> find_collector(int handle) {
  const std::lock_guard<std::mutex> lock(collectors().mutex);
  auto it = collectors().map.find(handle);
  return it == collectors().map.end() ? nullptr : it->second;
}

/// Forwards stat growth since the last call into the library registry
/// (call with writer_mutex held).  No-op while the library is down; the
/// deltas simply attribute at the first call after the next init.
void attribute_collector_telemetry(CollectorState& cs) {
  if (g().library == nullptr) return;
  papi::TelemetryRegistry& t = g().library->telemetry();
  const aggregate::CollectorStats& st = cs.collector.stats();
  if (st.frames > cs.frames_attributed) {
    t.bump(papi::TelemetryCounter::kCollectorFrames,
           st.frames - cs.frames_attributed);
  }
  if (st.decode_errors > cs.errors_attributed) {
    t.bump(papi::TelemetryCounter::kCollectorDecodeErrors,
           st.decode_errors - cs.errors_attributed);
  }
  if (st.reductions > cs.reductions_attributed) {
    t.bump(papi::TelemetryCounter::kCollectorReductions,
           st.reductions - cs.reductions_attributed);
  }
  cs.frames_attributed = st.frames;
  cs.errors_attributed = st.decode_errors;
  cs.reductions_attributed = st.reductions;
}

void fill_metric(const aggregate::MetricStats& in,
                 PAPIrepro_metric_stats_t& out) {
  out.min = in.min;
  out.max = in.max;
  out.sum = in.sum;
  out.avg = in.avg;
  out.count = static_cast<long long>(in.count);
  out.p50 = static_cast<long long>(in.p50);
  out.p95 = static_cast<long long>(in.p95);
  out.p99 = static_cast<long long>(in.p99);
}

void fill_view(const aggregate::ClusterReduction& in,
               PAPIrepro_cluster_view_t& out) {
  out.now_cycles = static_cast<long long>(in.now_cycles);
  out.reduce_count = static_cast<long long>(in.reduce_count);
  out.ranks_live = static_cast<int>(in.ranks_live);
  out.ranks_stale = static_cast<int>(in.ranks_stale);
  out.num_metrics = static_cast<int>(in.num_metrics);
  for (std::uint32_t i = 0;
       i < in.num_metrics && i < PAPIREPRO_COLLECTOR_MAX_METRICS; ++i) {
    fill_metric(in.metrics[i], out.metrics[i]);
  }
}

}  // namespace

extern "C" {

int PAPIrepro_collector_create(
    const PAPIrepro_collector_config_t* config) {
  aggregate::CollectorConfig cc;
  if (config != nullptr) {
    if (config->max_ranks > 0) {
      cc.max_ranks = static_cast<std::uint32_t>(config->max_ranks);
    }
    if (config->ranks_per_node > 0) {
      cc.ranks_per_node =
          static_cast<std::uint32_t>(config->ranks_per_node);
    }
    if (config->num_metrics > 0) {
      cc.num_metrics = static_cast<std::uint32_t>(config->num_metrics);
    }
    if (config->max_age_cycles > 0) {
      cc.max_age_cycles =
          static_cast<std::uint64_t>(config->max_age_cycles);
    }
    if (config->stale_reduce_rounds > 0) {
      cc.stale_reduce_rounds =
          static_cast<std::uint32_t>(config->stale_reduce_rounds);
    }
  }
  std::shared_ptr<CollectorState> state;
  try {
    state = std::make_shared<CollectorState>(cc);
  } catch (const std::bad_alloc&) {
    return PAPI_ENOMEM;
  }
  const std::lock_guard<std::mutex> lock(collectors().mutex);
  const int handle = collectors().next_handle++;
  collectors().map.emplace(handle, std::move(state));
  return handle;
}

int PAPIrepro_collector_destroy(int collector) {
  const std::lock_guard<std::mutex> lock(collectors().mutex);
  return collectors().map.erase(collector) != 0 ? PAPI_OK : PAPI_ENOEVST;
}

int PAPIrepro_collector_ingest(int collector, const void* buf,
                               long long len) {
  if (len < 0 || (buf == nullptr && len != 0)) return PAPI_EINVAL;
  auto state = find_collector(collector);
  if (state == nullptr) return PAPI_ENOEVST;
  const std::lock_guard<std::mutex> lock(state->writer_mutex);
  const std::size_t accepted = state->collector.ingest(
      {static_cast<const std::uint8_t*>(buf),
       static_cast<std::size_t>(len)});
  attribute_collector_telemetry(*state);
  return static_cast<int>(accepted);
}

int PAPIrepro_collector_reduce(int collector, long long now_cycles,
                               PAPIrepro_cluster_view_t* out) {
  auto state = find_collector(collector);
  if (state == nullptr) return PAPI_ENOEVST;
  const std::lock_guard<std::mutex> lock(state->writer_mutex);
  const aggregate::ClusterReduction& r = state->collector.reduce(
      now_cycles > 0 ? static_cast<std::uint64_t>(now_cycles) : 0u);
  state->region.publish(r);
  attribute_collector_telemetry(*state);
  if (out != nullptr) fill_view(r, *out);
  return PAPI_OK;
}

int PAPIrepro_collector_read(int collector,
                             PAPIrepro_cluster_view_t* out) {
  if (out == nullptr) return PAPI_EINVAL;
  auto state = find_collector(collector);
  if (state == nullptr) return PAPI_ENOEVST;
  aggregate::ClusterReduction snap;
  if (!state->region.read_into(snap)) return PAPI_ESYS;
  fill_view(snap, *out);
  return PAPI_OK;
}

int PAPIrepro_wire_encode(unsigned int rank, long long frame_cycles,
                          const PAPIrepro_snapshot_t* entries,
                          int num_entries, const long long* values,
                          int num_values, void* out, long long capacity) {
  if (entries == nullptr || out == nullptr || num_entries < 0 ||
      num_values < 0 || capacity < 0 ||
      (values == nullptr && num_values != 0)) {
    return PAPI_EINVAL;
  }
  // Marshal the C snapshot rows back into SnapshotEntry form; scratch
  // is thread-local so steady-state encoding allocates nothing.
  thread_local std::vector<papi::SnapshotEntry> scratch;
  scratch.assign(static_cast<std::size_t>(num_entries), {});
  for (int i = 0; i < num_entries; ++i) {
    scratch[i].handle = entries[i].event_set;
    scratch[i].first_value =
        static_cast<std::uint32_t>(entries[i].first_value);
    scratch[i].num_values =
        static_cast<std::uint32_t>(entries[i].num_values);
    scratch[i].status = static_cast<Error>(entries[i].status);
    scratch[i].flags = static_cast<std::uint32_t>(entries[i].flags);
    scratch[i].pub_cycles =
        static_cast<std::uint64_t>(entries[i].pub_cycles);
  }
  thread_local std::vector<std::uint8_t> frame;
  frame.clear();
  if (!aggregate::encode_frame(
          rank,
          frame_cycles > 0 ? static_cast<std::uint64_t>(frame_cycles) : 0u,
          scratch, {values, static_cast<std::size_t>(num_values)},
          frame)) {
    return PAPI_EINVAL;
  }
  if (frame.size() > static_cast<std::size_t>(capacity)) {
    return PAPI_EINVAL;
  }
  std::memcpy(out, frame.data(), frame.size());
  return static_cast<int>(frame.size());
}

int PAPI_accum(int event_set, long long* values) {
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  if (values == nullptr) return PAPI_EINVAL;
  return to_code(
      set.value()->accum({values, set.value()->num_events()}));
}

int PAPI_reset(int event_set) {
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  return to_code(set.value()->reset());
}

int PAPIrepro_overhead_ratio(int event_set, double* out) {
  if (out == nullptr) return PAPI_EINVAL;
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  *out = set.value()->overhead_ratio();
  return PAPI_OK;
}

int PAPI_overflow(int event_set, int event_code, int threshold,
                  int /*flags*/, PAPI_overflow_handler_t handler) {
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  const auto id = decode_event(event_code);
  if (!id) return PAPI_ENOEVNT;
  if (threshold == 0) {
    return to_code(set.value()->clear_overflow(*id));
  }
  if (handler == nullptr || threshold < 0) return PAPI_EINVAL;
  {
    const std::lock_guard<std::mutex> lock(g().bridge_mutex);
    g().overflow_handlers[event_set] = handler;
  }
  return to_code(set.value()->set_overflow(
      *id, static_cast<std::uint64_t>(threshold),
      [event_set](papi::EventSet&, const papi::OverflowEvent& ev) {
        PAPI_overflow_handler_t user = nullptr;
        {
          const std::lock_guard<std::mutex> lock(g().bridge_mutex);
          auto it = g().overflow_handlers.find(event_set);
          if (it == g().overflow_handlers.end()) return;
          user = it->second;
        }
        user(event_set, reinterpret_cast<void*>(ev.pc_observed),
             /*overflow_vector=*/1, nullptr);
      }));
}

int PAPI_profil(unsigned int* buf, unsigned int bufsiz,
                unsigned long long offset, unsigned int scale,
                int event_set, int event_code, int threshold) {
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  const auto id = decode_event(event_code);
  if (!id) return PAPI_ENOEVNT;
  if (threshold == 0) {
    flush_profil(event_set);
    {
      const std::lock_guard<std::mutex> lock(g().bridge_mutex);
      g().profil_states.erase(event_set);
    }
    return to_code(set.value()->profil_stop(*id));
  }
  if (buf == nullptr || bufsiz == 0 || threshold < 0) return PAPI_EINVAL;
  if (scale == 0) scale = 0x4000;  // one bucket per 4-byte instruction
  if (!papi::ProfileBuffer::valid_scale(scale)) return PAPI_EINVAL;

  ProfilState state;
  // Exact SVR4 span: the old bytes-per-bucket form truncated
  // 0x10000 / scale, shrinking the covered range (and, for scales above
  // 0x10000, dividing by zero in release builds).  bufsiz buckets cover
  // bufsiz * 0x10000 / scale bytes.
  const std::uint64_t span =
      (static_cast<std::uint64_t>(bufsiz) << 16) / scale;
  state.buffer =
      std::make_unique<papi::ProfileBuffer>(offset, span, scale);
  state.user_buf = buf;
  state.bufsiz = bufsiz;
  state.event_code = event_code;
  const Status s = set.value()->profil(
      *state.buffer, *id, static_cast<std::uint64_t>(threshold));
  if (!s.ok()) return to_code(s);
  {
    const std::lock_guard<std::mutex> lock(g().bridge_mutex);
    g().profil_states[event_set] = std::move(state);
  }
  return PAPI_OK;
}

long long PAPI_get_real_usec(void) {
  if (g().library == nullptr) return 0;
  return static_cast<long long>(g().library->real_usec());
}

long long PAPI_get_real_cyc(void) {
  if (g().library == nullptr) return 0;
  return static_cast<long long>(g().library->real_cycles());
}

long long PAPI_get_virt_usec(void) {
  if (g().library == nullptr) return 0;
  return static_cast<long long>(g().library->virt_usec());
}

long long PAPI_get_virt_cyc(void) {
  // Virtual time equals real time on the single-process simulated
  // machines; the host substrate scales thread CPU-time to "cycles" the
  // same way it reports them (nanosecond granularity).
  if (g().library == nullptr) return 0;
  return static_cast<long long>(g().library->virt_usec()) * 1000;
}

int PAPI_list_events(int event_set, int* events, int* number) {
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  if (number == nullptr) return PAPI_EINVAL;
  const auto members = set.value()->events();
  if (events != nullptr) {
    const int cap = *number;
    for (int i = 0; i < cap && i < static_cast<int>(members.size());
         ++i) {
      events[i] = static_cast<int>(members[i].code());
    }
  }
  *number = static_cast<int>(members.size());
  return PAPI_OK;
}

int PAPI_state(int event_set, int* status) {
  auto set = lookup(event_set);
  if (!set.ok()) return to_code(set.error());
  if (status == nullptr) return PAPI_EINVAL;
  *status = set.value()->running() ? PAPI_RUNNING : PAPI_STOPPED;
  return PAPI_OK;
}

int PAPI_num_counters(void) { return PAPI_num_hwctrs(); }

int PAPI_start_counters(int* events, int array_len) {
  if (g().high_level == nullptr) return PAPI_ENOINIT;
  if (events == nullptr || array_len <= 0) return PAPI_EINVAL;
  std::vector<papi::EventId> ids;
  ids.reserve(static_cast<std::size_t>(array_len));
  for (int i = 0; i < array_len; ++i) {
    const auto id = decode_event(events[i]);
    if (!id) return PAPI_ENOEVNT;
    ids.push_back(*id);
  }
  return to_code(g().high_level->start_counters(ids));
}

int PAPI_read_counters(long long* values, int array_len) {
  if (g().high_level == nullptr) return PAPI_ENOINIT;
  if (values == nullptr || array_len <= 0) return PAPI_EINVAL;
  return to_code(g().high_level->read_counters(
      {values, static_cast<std::size_t>(array_len)}));
}

int PAPI_accum_counters(long long* values, int array_len) {
  if (g().high_level == nullptr) return PAPI_ENOINIT;
  if (values == nullptr || array_len <= 0) return PAPI_EINVAL;
  return to_code(g().high_level->accum_counters(
      {values, static_cast<std::size_t>(array_len)}));
}

int PAPI_stop_counters(long long* values, int array_len) {
  if (g().high_level == nullptr) return PAPI_ENOINIT;
  if (values == nullptr || array_len <= 0) return PAPI_EINVAL;
  return to_code(g().high_level->stop_counters(
      {values, static_cast<std::size_t>(array_len)}));
}

int PAPI_flops(float* rtime, float* ptime, long long* flpops,
               float* mflops) {
  if (g().high_level == nullptr) return PAPI_ENOINIT;
  if (rtime == nullptr || ptime == nullptr || flpops == nullptr ||
      mflops == nullptr) {
    return PAPI_EINVAL;
  }
  auto info = g().high_level->flops();
  if (!info.ok()) return to_code(info.error());
  *rtime = static_cast<float>(info.value().real_time_s);
  *ptime = static_cast<float>(info.value().proc_time_s);
  *flpops = info.value().flops;
  *mflops = static_cast<float>(info.value().mflops);
  return PAPI_OK;
}

int PAPI_ipc(float* rtime, float* ptime, long long* ins, float* ipc) {
  if (g().high_level == nullptr) return PAPI_ENOINIT;
  if (rtime == nullptr || ptime == nullptr || ins == nullptr ||
      ipc == nullptr) {
    return PAPI_EINVAL;
  }
  auto info = g().high_level->ipc();
  if (!info.ok()) return to_code(info.error());
  *rtime = static_cast<float>(info.value().real_time_s);
  *ptime = static_cast<float>(info.value().proc_time_s);
  *ins = info.value().instructions;
  *ipc = static_cast<float>(info.value().ipc);
  return PAPI_OK;
}

int PAPI_get_memory_info(PAPI_mem_info_t* info) {
  if (g().library == nullptr) return PAPI_ENOINIT;
  if (info == nullptr) return PAPI_EINVAL;
  auto mem = g().library->memory_info();
  if (!mem.ok()) return to_code(mem.error());
  info->total_bytes = static_cast<long long>(mem.value().total_bytes);
  info->available_bytes =
      static_cast<long long>(mem.value().available_bytes);
  info->process_resident_bytes =
      static_cast<long long>(mem.value().process_resident_bytes);
  info->process_peak_bytes =
      static_cast<long long>(mem.value().process_peak_bytes);
  info->page_size_bytes =
      static_cast<long long>(mem.value().page_size_bytes);
  info->page_faults = static_cast<long long>(mem.value().page_faults);
  return PAPI_OK;
}

}  // extern "C"
