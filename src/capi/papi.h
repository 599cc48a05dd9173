/* C binding for the PAPI reproduction.  PAPI is, first and foremost, a C
 * specification; this header mirrors the classic PAPI 2/3 function
 * surface so C code (and Fortran via the usual wrappers) can drive the
 * library.  The global state model matches real PAPI: one library
 * instance per process, integer EventSet handles.
 *
 * The one extension over the 2003 API is the simulator bootstrap
 * (PAPIrepro_sim_*): real PAPI measured the host CPU, we measure a
 * simulated one, so the C client must say which platform model and
 * workload to bind.  PAPI_library_init() without a simulator binds the
 * host substrate (timers and memory info work; counters return
 * PAPI_ENOCNTR, as on an unpatched 2003 Linux kernel).
 */
#ifndef PAPIREPRO_CAPI_PAPI_H_
#define PAPIREPRO_CAPI_PAPI_H_

#ifdef __cplusplus
extern "C" {
#endif

/* ---- return codes (classic PAPI values) ---- */
#define PAPI_OK 0
#define PAPI_EINVAL (-1)
#define PAPI_ENOMEM (-2)
#define PAPI_ESYS (-3)
#define PAPI_ESBSTR (-4)
#define PAPI_ENOSUPP (-7)
#define PAPI_ENOEVNT (-8)
#define PAPI_ECNFLCT (-9)
#define PAPI_ENOTRUN (-10)
#define PAPI_EISRUN (-11)
#define PAPI_ENOEVST (-12)
#define PAPI_ENOTPRESET (-13)
#define PAPI_ENOCNTR (-14)
#define PAPI_EMISC (-15)
#define PAPI_EPERM (-16)
#define PAPI_ENOINIT (-17)
#define PAPI_ECMPDIS (-19) /* component is disabled */
#define PAPI_ENOCMP (-20)  /* no such component */
#define PAPI_ECMPQUAR (-21) /* component quarantined by health monitor */

#define PAPI_VER_CURRENT 0x03000000
#define PAPI_NULL (-1)

#define PAPI_MIN_STR_LEN 64
#define PAPI_MAX_STR_LEN 128

/* counting domains (PAPI_set_domain) */
#define PAPI_DOM_USER 0x1
#define PAPI_DOM_KERNEL 0x2
#define PAPI_DOM_ALL (PAPI_DOM_USER | PAPI_DOM_KERNEL)

/* ---- preset event codes (high bit set, index in low bits) ---- */
#define PAPI_PRESET_MASK 0x80000000u
#define PAPI_TOT_CYC (int)(PAPI_PRESET_MASK | 0)
#define PAPI_TOT_INS (int)(PAPI_PRESET_MASK | 1)
#define PAPI_FP_INS (int)(PAPI_PRESET_MASK | 2)
#define PAPI_FP_OPS (int)(PAPI_PRESET_MASK | 3)
#define PAPI_FMA_INS (int)(PAPI_PRESET_MASK | 4)
#define PAPI_FDV_INS (int)(PAPI_PRESET_MASK | 5)
#define PAPI_LD_INS (int)(PAPI_PRESET_MASK | 6)
#define PAPI_SR_INS (int)(PAPI_PRESET_MASK | 7)
#define PAPI_LST_INS (int)(PAPI_PRESET_MASK | 8)
#define PAPI_L1_DCA (int)(PAPI_PRESET_MASK | 9)
#define PAPI_L1_DCM (int)(PAPI_PRESET_MASK | 10)
#define PAPI_L1_ICM (int)(PAPI_PRESET_MASK | 11)
#define PAPI_L1_TCM (int)(PAPI_PRESET_MASK | 12)
#define PAPI_L2_TCA (int)(PAPI_PRESET_MASK | 13)
#define PAPI_L2_TCM (int)(PAPI_PRESET_MASK | 14)
#define PAPI_TLB_DM (int)(PAPI_PRESET_MASK | 15)
#define PAPI_TLB_IM (int)(PAPI_PRESET_MASK | 16)
#define PAPI_TLB_TL (int)(PAPI_PRESET_MASK | 17)
#define PAPI_BR_INS (int)(PAPI_PRESET_MASK | 18)
#define PAPI_BR_TKN (int)(PAPI_PRESET_MASK | 19)
#define PAPI_BR_MSP (int)(PAPI_PRESET_MASK | 20)
#define PAPI_BR_PRC (int)(PAPI_PRESET_MASK | 21)
#define PAPI_STL_CCY (int)(PAPI_PRESET_MASK | 22)
#define PAPI_MSG_SNT (int)(PAPI_PRESET_MASK | 23)
#define PAPI_MSG_RCV (int)(PAPI_PRESET_MASK | 24)

/* ---- components (PAPI-C style registry) ----
 * Each measurement component (CPU core, memory/uncore, network) owns
 * its own substrate, event namespace, and counter budget.  Component 0
 * is always the CPU core; a simulator-bound library registers "mem"
 * (memory-bandwidth counters over the simulated cache hierarchy) and
 * "net" (CommWorld message counters) at init.  Event codes carry the
 * owning component id in bits 30..24; qualified names ("mem::
 * BANDWIDTH_RD", "net::PAPI_MSG_SNT") resolve through
 * PAPI_event_name_to_code.  An EventSet may span components: counters
 * start/stop/read across all of them as one coherent snapshot. */
#define PAPIREPRO_MAX_COMPONENTS 8
#define PAPIREPRO_COMPONENT_MASK 0x7f000000u
#define PAPIREPRO_COMPONENT_SHIFT 24
/* Component id carried by an event code. */
#define PAPIREPRO_EVENT_COMPONENT(code) \
  (((unsigned int)(code) & PAPIREPRO_COMPONENT_MASK) >> \
   PAPIREPRO_COMPONENT_SHIFT)

typedef struct PAPIrepro_component_info {
  int id;
  char name[PAPI_MIN_STR_LEN];        /* namespace prefix, e.g. "mem" */
  char description[PAPI_MAX_STR_LEN]; /* substrate self-description */
  int num_counters;                   /* component's counter budget */
  int enabled;                        /* 0 after PAPIrepro_set_component_enabled(id, 0) */
} PAPIrepro_component_info_t;

/* Number of registered components, or PAPI_ENOINIT. */
int PAPI_num_components(void);
/* PAPI_ENOCMP for an unknown id; PAPI_EINVAL on NULL out. */
int PAPI_get_component_info(int id, PAPIrepro_component_info_t* out);
/* Soft-disables a component: running EventSets keep working, new
 * PAPI_add_event calls against it fail with PAPI_ECMPDIS. */
int PAPIrepro_set_component_enabled(int id, int enable);

/* ---- simulator bootstrap (reproduction extension) ---- */
typedef struct PAPIrepro_sim PAPIrepro_sim_t;

/* platform: "sim-x86" | "sim-power3" | "sim-ia64" | "sim-alpha";
 * workload: see sim/workload_registry.h; n: problem-size knob (0 =
 * default).  Returns NULL on unknown names. */
PAPIrepro_sim_t* PAPIrepro_sim_create(const char* platform,
                                      const char* workload, long long n);
/* Runs up to max_instructions (<=0: to completion).  Returns retired
 * instruction count. */
long long PAPIrepro_sim_run(PAPIrepro_sim_t* sim,
                            long long max_instructions);
int PAPIrepro_sim_halted(const PAPIrepro_sim_t* sim);
void PAPIrepro_sim_destroy(PAPIrepro_sim_t* sim);
/* Binds the global PAPI library to this simulator's substrate.  Must be
 * called before PAPI_library_init. */
int PAPIrepro_bind_sim(PAPIrepro_sim_t* sim);
/* Binds this simulator's machine as the *calling thread's* counter
 * domain: the thread's EventSets then count on it.  Requires an
 * initialized library bound to a sim of the same platform; used by
 * multi-rank programs running one machine per thread. */
int PAPIrepro_sim_bind_thread(PAPIrepro_sim_t* sim);
/* Enables DADD-style count estimation from samples (sim-alpha only). */
int PAPIrepro_set_estimation(int enable);

/* ---- fault injection & hardening (reproduction extension) ----
 * A deterministic fault plan wraps the substrate in a fault-injecting
 * decorator: scripted "fail N times then succeed" transients plus seeded
 * per-call failure probabilities on the counter-control paths, narrow
 * (wrapping) counter registers, and multiplex-timer misfire.  Configure
 * the plan *before* PAPI_library_init (the decorator is installed at
 * init); toggle injection on and off at any time with
 * PAPIrepro_inject_faults.  All fields zero = a no-op plan. */
typedef struct PAPIrepro_fault_plan {
  unsigned long long seed;         /* fault-stream seed */
  int create_context_fail_times;   /* fail the first N context creates */
  int program_fail_times;          /* fail the first N program() calls */
  int start_fail_times;            /* fail the first N start() calls */
  int read_fail_times;             /* fail the first N read() calls */
  int add_timer_fail_times;        /* fail the first N timer arms */
  double program_fail_probability; /* after the script, per-call odds */
  double read_fail_probability;
  int fault_code;                  /* injected PAPI_* code; 0 = PAPI_ECNFLCT */
  int counter_width_bits;          /* reads wrap at this width; 0/64 = off */
  double timer_drop_probability;   /* multiplex slice-timer misfire odds */
  unsigned long long timer_extra_delay_cycles; /* late timer service */
  /* Which component's substrate the decorator wraps: 0 = every
   * registered component (the all-zero plan stays a no-op for all of
   * them), N > 0 = only component N-1.  Applied at init time. */
  int target_component;
  /* Deferred hard-down windows: the first *_fail_after calls at a site
   * pass untouched, then the site's *_fail_times scripted failures fire
   * back-to-back, then the site recovers.  0 (the default) keeps the
   * legacy fail-from-the-first-call behavior. */
  int create_context_fail_after;
  int program_fail_after;
  int start_fail_after;
  int read_fail_after;
  int add_timer_fail_after;
  /* Non-monotonic counter injection: after read_rewind_after successful
   * reads, the next read_rewind_times reads report values rewound by
   * read_rewind_delta (clamped at 0) — exercises the fold path's
   * monotonicity sanity guard.  Times or delta of 0 disables it. */
  unsigned int read_rewind_after;
  unsigned int read_rewind_times;
  unsigned long long read_rewind_delta;
} PAPIrepro_fault_plan_t;

/* Stages `plan` for the next PAPI_library_init, or — when the library is
 * already initialized with a fault decorator installed — replaces the
 * active plan and rewinds its scripts.  PAPI_EISRUN if the library is
 * initialized without a decorator. */
int PAPIrepro_set_fault_plan(const PAPIrepro_fault_plan_t* plan);
/* Master injection switch.  Before init: arms (or disarms) the staged
 * plan, staging a default plan if none was set.  After init: toggles the
 * installed decorator; PAPI_ENOSUPP when none is installed. */
int PAPIrepro_inject_faults(int enable);
/* Bounded-retry hardening knob: total attempts (>= 1; 1 = no retries)
 * for transient substrate faults, with doubling wall-clock backoff
 * starting at backoff_usec (0 = immediate).  Requires an initialized
 * library. */
int PAPIrepro_set_retry(int max_attempts,
                        unsigned long long backoff_usec);

/* ---- component health monitor (reproduction extension) ----
 * Every component is watched by a circuit breaker: consecutive retry
 * exhaustions or a high failure rate over a sliding window trip it into
 * quarantine, where counter operations against the component fail fast
 * with PAPI_ECMPQUAR instead of burning the retry/backoff budget.  A
 * quarantined component self-heals: after an exponential cool-down the
 * next operation is admitted as a probe, and enough consecutive probe
 * successes return the component to service. */
#define PAPIREPRO_HEALTH_HEALTHY 0
#define PAPIREPRO_HEALTH_DEGRADED 1    /* failures seen, still admitted */
#define PAPIREPRO_HEALTH_QUARANTINED 2 /* breaker open: ops fail fast */
#define PAPIREPRO_HEALTH_PROBATION 3   /* cool-down over: probing */

typedef struct PAPIrepro_component_health {
  int component;                 /* component id */
  int state;                     /* PAPIREPRO_HEALTH_* */
  int consecutive_exhaustions;   /* current retry-exhaustion streak */
  int window_ops;                /* ops in the sliding window (<= 64) */
  int window_failures;           /* failed ops in the window */
  long long quarantines;         /* times the breaker tripped */
  long long fail_fasts;          /* ops rejected with PAPI_ECMPQUAR */
  long long probes;              /* ops admitted on probation */
  long long transitions;         /* state transitions since init */
  long long cooldown_usec;       /* current quarantine cool-down */
  int last_error;                /* last failing PAPI_* code, 0 if none */
} PAPIrepro_component_health_t;

typedef struct PAPIrepro_health_policy {
  int enabled;                    /* 0 disables the breaker entirely */
  int max_consecutive_exhaustions; /* streak that trips quarantine (>=1) */
  int window_min_ops;             /* min window ops before rate applies */
  double failure_rate_threshold;  /* window failure rate trip [0..1] */
  int probation_successes;        /* probe successes to re-enter service */
  long long probe_cooldown_usec;  /* initial quarantine cool-down */
  long long probe_cooldown_max_usec; /* cool-down doubling cap */
} PAPIrepro_health_policy_t;

/* PAPI_ENOCMP for an unknown component; PAPI_EINVAL on NULL out. */
int PAPIrepro_get_component_health(int component,
                                   PAPIrepro_component_health_t* out);
/* Applies `policy` to every component (library-wide).  PAPI_EINVAL on
 * NULL or out-of-range fields. */
int PAPIrepro_set_health_policy(const PAPIrepro_health_policy_t* policy);
/* Reads the active library-wide policy.  PAPI_EINVAL on NULL out. */
int PAPIrepro_get_health_policy(PAPIrepro_health_policy_t* out);

/* Per-event validity flags for PAPIrepro_read_ex and the batched reads
 * below. */
#define PAPIREPRO_READ_VALID 0       /* fresh value from the hardware */
#define PAPIREPRO_READ_STALE 0x1     /* last latched value (slice failed) */
#define PAPIREPRO_READ_QUARANTINED 0x2 /* owning component quarantined */
#define PAPIREPRO_READ_SUSPECT 0x4   /* non-monotonic delta was clamped */
#define PAPIREPRO_READ_PUBLISHED 0x8 /* served from the owning thread's
                                      * published snapshot, not a live read */
#define PAPIREPRO_READ_NODATA 0x10   /* value unavailable (reads 0): beyond
                                      * publication capacity / never ran */

/* Partial-failure read for spanning EventSets: like PAPI_read, but a
 * failed or quarantined component slice no longer fails the whole call —
 * its events report their last latched values flagged
 * PAPIREPRO_READ_STALE (plus _QUARANTINED when the breaker is open)
 * while healthy slices deliver fresh values flagged _VALID.  `flags`
 * receives one entry per event (same order as values); returns PAPI_OK
 * as long as the EventSet is running, even when every slice failed. */
int PAPIrepro_read_ex(int event_set, long long* values, int* flags);

/* ---- batched snapshot reads (reproduction extension) ----
 * One call reads many EventSets: the calling thread's context is
 * resolved once, its own running set gets a full live read, and every
 * other set — including sets running on other threads — is served from
 * the seqlock-published snapshot its owning thread refreshes at
 * start/read/stop (flagged PAPIREPRO_READ_PUBLISHED).  The whole pass
 * is lock-free and allocation-free. */
typedef struct PAPIrepro_snapshot {
  int event_set;   /* the handle this entry describes */
  int first_value; /* index of its first value in the shared buffer */
  int num_values;  /* values written for it (0 on error/never ran) */
  int status;      /* PAPI_OK, PAPI_ENOTRUN, PAPI_ENOEVST, ... */
  int flags;       /* OR of its events' PAPIREPRO_READ_* bits */
  /* Substrate cycle stamp of the moment the values were produced (the
   * publication time for _PUBLISHED entries, the read time for live
   * ones; 0 if the set never ran).  Collectors age-out ranks whose
   * stamps stop advancing. */
  long long pub_cycles;
} PAPIrepro_snapshot_t;

/* Reads `count` EventSets in one pass.  Values land back-to-back in
 * `values` (capacity `values_capacity`); entries[i] describes where
 * event_sets[i]'s values went.  An unknown handle yields a per-entry
 * PAPI_ENOEVST status — not a call failure — so a racing destroy is
 * survivable.  PAPI_EINVAL on NULL args, count <= 0, or insufficient
 * values capacity. */
int PAPIrepro_read_many(const int* event_sets, int count,
                        long long* values, int values_capacity,
                        PAPIrepro_snapshot_t* entries);

/* Walks every live EventSet in the library in one coherent pass.
 * Returns the number of entries written (>= 0), PAPI_EINVAL when
 * entries/values are NULL or a buffer is too small (max_entries /
 * values_capacity), or another PAPI error.  Ordering follows handle
 * numbering. */
int PAPIrepro_snapshot_all(PAPIrepro_snapshot_t* entries, int max_entries,
                           long long* values, int values_capacity);

/* ---- cluster aggregation service (reproduction extension) ----
 * A collector ingests per-rank snapshot frames (the compact wire format
 * PAPIrepro_wire_encode produces from PAPIrepro_snapshot_all output)
 * and reduces them hierarchically: per-rank -> per-node min/max/sum/avg
 * -> per-cluster min/max/sum/avg plus streaming p50/p95/p99.  Ingest
 * and reduce allocate nothing after create, and never touch the
 * counting threads — only their published snapshots.  The reduction is
 * double-buffered through a seqlock region, so PAPIrepro_collector_read
 * may be called from any thread while another ingests/reduces. */
#define PAPIREPRO_COLLECTOR_MAX_METRICS 16

typedef struct PAPIrepro_collector_config {
  int max_ranks;       /* rank slots preallocated (<=0 -> 1024) */
  int ranks_per_node;  /* reduction-tree fan-in (<=0 -> 32) */
  int num_metrics;     /* metrics reduced per rank (<=0 -> 4) */
  /* Age-out: a rank whose newest publication stamp lags now_cycles by
   * more than max_age_cycles (0 = off), or fails to advance for
   * stale_reduce_rounds consecutive reduces (0 = off), is excluded
   * from the reduction and counted in ranks_stale. */
  long long max_age_cycles;
  int stale_reduce_rounds;
} PAPIrepro_collector_config_t;

typedef struct PAPIrepro_metric_stats {
  long long min;
  long long max;
  long long sum;
  double avg;
  long long count; /* ranks contributing */
  long long p50;   /* histogram lower-bound representatives */
  long long p95;
  long long p99;
} PAPIrepro_metric_stats_t;

typedef struct PAPIrepro_cluster_view {
  long long now_cycles;
  long long reduce_count;
  int ranks_live;
  int ranks_stale;
  int num_metrics;
  PAPIrepro_metric_stats_t metrics[PAPIREPRO_COLLECTOR_MAX_METRICS];
} PAPIrepro_cluster_view_t;

/* Creates a collector sized by `config` (NULL = all defaults).  Returns
 * a handle >= 0, or PAPI_ENOMEM.  Collectors are independent of
 * PAPI_library_init, but when the library is initialized their frame /
 * decode-error / reduction counts land in PAPIrepro_get_telemetry. */
int PAPIrepro_collector_create(const PAPIrepro_collector_config_t* config);
int PAPIrepro_collector_destroy(int collector);

/* Decodes every frame in buf[0..len) into the collector's rank slots.
 * Returns frames accepted (>= 0; bad frames are skipped and counted),
 * PAPI_ENOEVST for an unknown collector handle, PAPI_EINVAL on NULL
 * buf with nonzero len. */
int PAPIrepro_collector_ingest(int collector, const void* buf,
                               long long len);

/* Recomputes the hierarchical reduction at `now_cycles` (the caller's
 * clock, used for age-out), publishes it through the seqlock region,
 * and optionally copies it to *out (NULL ok). */
int PAPIrepro_collector_reduce(int collector, long long now_cycles,
                               PAPIrepro_cluster_view_t* out);

/* Copies the most recently published reduction into *out without
 * disturbing a concurrent ingest/reduce (bounded seqlock retry;
 * PAPI_ESYS if every attempt raced the writer). */
int PAPIrepro_collector_read(int collector, PAPIrepro_cluster_view_t* out);

/* Encodes one rank's snapshot (entries/values as filled in by
 * PAPIrepro_snapshot_all) into the wire format, appended at out[0].
 * Returns bytes written, PAPI_EINVAL on NULL args or when the frame
 * would exceed `capacity` or the format's caps. */
int PAPIrepro_wire_encode(unsigned int rank, long long frame_cycles,
                          const PAPIrepro_snapshot_t* entries,
                          int num_entries, const long long* values,
                          int num_values, void* out, long long capacity);

/* ---- asynchronous sampling pipeline ----
 * With async enabled, overflow/PAPI_profil dispatch is deferred: the
 * counting thread enqueues an O(1) sample into a per-run lock-free ring
 * and a library aggregator thread runs handlers / histogram updates.
 * A full ring drops the sample (counted in PAPIrepro_get_telemetry's
 * samples_dropped) rather than ever blocking the counting thread.
 * Applies to event sets started after the call. */
/* async_enable: 0 = classic synchronous dispatch (default), nonzero =
 * ring + aggregator.  ring_capacity: records per ring, rounded up to a
 * power of two (0 keeps the current setting's default of 1024).
 * PAPI_EINVAL when ring_capacity exceeds the supported maximum. */
int PAPIrepro_set_sampling(int async_enable,
                           unsigned long long ring_capacity);

/* ---- self-telemetry (reproduction extension) ----
 * The library watches itself: every control-path call, retry,
 * degradation, mux rotation, sample, and injected fault bumps a
 * process-wide introspection counter.  One consistent snapshot (below)
 * backs this call and the PAPIREPRO_TELEMETRY=stderr|<path> at-shutdown
 * summary. */
typedef struct PAPIrepro_telemetry {
  /* counters, cumulative since init */
  long long starts;             /* successful PAPI_start calls */
  long long stops;              /* successful PAPI_stop calls */
  long long reads;              /* PAPI_read calls (accum reads included) */
  long long accums;             /* PAPI_accum calls */
  long long resets;             /* PAPI_reset calls */
  long long mux_rotations;      /* multiplex slice rotations */
  long long retry_attempts;     /* re-attempts after transient faults */
  long long retry_exhaustions;  /* transients surfaced after the budget */
  long long degradations;       /* degradation-ladder activations */
  long long faults_injected;    /* faults the injecting decorator fired */
  long long samples_enqueued;   /* overflow samples accepted by rings */
  long long samples_dropped;    /* overflow samples lost to full rings */
  long long samples_dispatched; /* samples the aggregator delivered */
  long long overflows_suppressed; /* dispatches dropped after clear */
  long long trace_records;      /* trace records accepted */
  long long trace_drops;        /* trace records lost to full rings */
  long long health_transitions; /* health state-machine transitions */
  long long health_fail_fasts;  /* ops rejected with PAPI_ECMPQUAR */
  long long health_probes;      /* ops admitted on probation */
  long long sanity_faults;      /* non-monotonic deltas flagged suspect */
  long long collector_frames;   /* snapshot frames ingested by collectors */
  long long collector_decode_errors; /* frames the wire decoder rejected */
  long long collector_reductions;    /* cluster reductions computed */
  /* gauges at snapshot time */
  long long threads_seen;       /* threads that ever touched telemetry */
  long long trace_records_buffered;
  long long sampling_sweeps;    /* aggregator drain passes */
  long long sampling_flushes;   /* synchronous flush/detach drains */
  long long sampling_rings_active; /* sample rings currently registered */
  long long sampling_ring_capacity; /* capacity applied to new rings */
  int sampling_async;           /* nonzero when async sampling is on */
  int enabled;                  /* master telemetry switch */
  int trace_enabled;            /* trace rings recording */
  /* per-component control-path counters, indexed by component id */
  int num_components;           /* valid entries in the arrays below */
  long long component_starts[PAPIREPRO_MAX_COMPONENTS];
  long long component_stops[PAPIREPRO_MAX_COMPONENTS];
  long long component_reads[PAPIREPRO_MAX_COMPONENTS];
} PAPIrepro_telemetry_t;
/* Requires an initialized library; PAPI_EINVAL on NULL out. */
int PAPIrepro_get_telemetry(PAPIrepro_telemetry_t* out);

/* Opt-in zero-allocation event tracing: each thread gets a fixed-size
 * ring of span/instant records (start/stop/read/rotate/retry/degrade/
 * overflow-dispatch) stamped with substrate cycles.  ring_capacity is
 * records per ring, rounded up to a power of two (0 keeps the current
 * default of 4096); PAPI_EINVAL when it exceeds the supported maximum.
 * Disabling stops recording but keeps buffered records for dump. */
int PAPIrepro_set_trace(int enable, unsigned long long ring_capacity);

#define PAPIREPRO_TRACE_JSON 0 /* chrome://tracing traceEvents document */
#define PAPIREPRO_TRACE_CSV 1  /* tid,kind,ts_cycles,dur_cycles,arg */
/* Drains buffered trace records (destructive) into `path`.  PAPI_EINVAL
 * on NULL path or unknown format, PAPI_ESYS when the file cannot be
 * written. */
int PAPIrepro_dump_trace(const char* path, int format);

/* Self-overhead attribution: cycles the substrate charged to
 * measurement infrastructure on behalf of `event_set`, divided by the
 * cycles its runs spanned — the paper's "up to ~30 % direct counting vs
 * 1-2 % sampling" finding as a queryable metric.  PAPI_EINVAL on NULL
 * out. */
int PAPIrepro_overhead_ratio(int event_set, double* out);

/* ---- library ---- */
int PAPI_library_init(int version);
int PAPI_is_initialized(void);
void PAPI_shutdown(void);
const char* PAPI_strerror(int code);
int PAPI_num_hwctrs(void);

/* ---- threads (PAPI 3 thread support) ----
 * The running-EventSet rule is per thread: each thread may run one
 * EventSet, and N threads may count concurrently.  PAPI_thread_init
 * installs the id function used to label threads (e.g. pthread_self);
 * threads are registered implicitly on their first PAPI_start, or
 * explicitly via PAPI_register_thread. */
int PAPI_thread_init(unsigned long (*id_fn)(void));
/* Numeric id of the calling thread, or (unsigned long)-1 before init. */
unsigned long PAPI_thread_id(void);
int PAPI_register_thread(void);
/* Fails with PAPI_EISRUN while the calling thread's EventSet runs. */
int PAPI_unregister_thread(void);
/* Number of threads known to the library. */
int PAPI_num_threads(void);

/* ---- event name space ---- */
int PAPI_query_event(int event_code);
int PAPI_event_name_to_code(const char* name, int* event_code);
int PAPI_event_code_to_name(int event_code, char* out, int len);

/* ---- low level: EventSets ---- */
int PAPI_create_eventset(int* event_set);
int PAPI_destroy_eventset(int* event_set);
int PAPI_add_event(int event_set, int event_code);
int PAPI_add_named_event(int event_set, const char* name);
int PAPI_remove_event(int event_set, int event_code);
int PAPI_num_events(int event_set);
int PAPI_set_multiplex(int event_set);
/* Set the counting domain of an event set (PAPI_DOM_*). */
int PAPI_set_domain(int event_set, int domain);
int PAPI_start(int event_set);
int PAPI_stop(int event_set, long long* values);
int PAPI_read(int event_set, long long* values);
int PAPI_accum(int event_set, long long* values);
int PAPI_reset(int event_set);

/* ---- overflow dispatch ---- */
typedef void (*PAPI_overflow_handler_t)(int event_set, void* address,
                                        long long overflow_vector,
                                        void* context);
int PAPI_overflow(int event_set, int event_code, int threshold,
                  int flags, PAPI_overflow_handler_t handler);

/* ---- SVR4-style statistical profiling ---- */
/* Buckets PC samples for `event_code` overflow every `threshold` counts
 * into buf[0..bufsiz).  Pass threshold 0 to stop profiling.  Bucket i
 * covers 4 bytes of text starting at offset + 4*i (scale 0x4000). */
int PAPI_profil(unsigned int* buf, unsigned int bufsiz,
                unsigned long long offset, unsigned int scale,
                int event_set, int event_code, int threshold);

/* event set states for PAPI_state */
#define PAPI_STOPPED 0x1
#define PAPI_RUNNING 0x2

/* Lists the events in an event set: on input *number is the capacity of
 * `events`; on output it is the member count (codes written up to the
 * smaller of the two). */
int PAPI_list_events(int event_set, int* events, int* number);
/* Stores PAPI_STOPPED or PAPI_RUNNING into *status. */
int PAPI_state(int event_set, int* status);

/* ---- timers ---- */
long long PAPI_get_real_usec(void);
long long PAPI_get_real_cyc(void);
long long PAPI_get_virt_usec(void);
long long PAPI_get_virt_cyc(void);

/* ---- high level ---- */
int PAPI_num_counters(void);
int PAPI_start_counters(int* events, int array_len);
int PAPI_read_counters(long long* values, int array_len);
int PAPI_accum_counters(long long* values, int array_len);
int PAPI_stop_counters(long long* values, int array_len);
int PAPI_flops(float* rtime, float* ptime, long long* flpops,
               float* mflops);
int PAPI_ipc(float* rtime, float* ptime, long long* ins, float* ipc);

/* ---- PAPI 3 memory utilization extension ---- */
typedef struct PAPI_mem_info {
  long long total_bytes;
  long long available_bytes;
  long long process_resident_bytes;
  long long process_peak_bytes;
  long long page_size_bytes;
  long long page_faults;
} PAPI_mem_info_t;
int PAPI_get_memory_info(PAPI_mem_info_t* info);

#ifdef __cplusplus
}
#endif

#endif /* PAPIREPRO_CAPI_PAPI_H_ */
