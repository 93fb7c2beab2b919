// The Liquid Metal runtime (§4).
//
// Implements the two host interfaces the bytecode interpreter exposes:
//
//  * TaskGraphHost — receives task creation/connect/start/finish ops while
//    the Lime program runs, builds the runtime graph of task objects (§4.1),
//    performs task substitution against the artifact store (§4.2), then
//    schedules the tasks over the shared event-driven executor with FIFO
//    connections, marshaling data to device artifacts as needed (§4.3).
//    Tasks are cooperative state machines multiplexed over a fixed worker
//    pool (see runtime/executor.h) — N graphs × M tasks share O(workers)
//    OS threads, and FIFO readiness events wake parked tasks instead of
//    unblocking dedicated threads.
//
//  * AccelHooks — offered every map/reduce; when the store holds a GPU
//    kernel for the method and the placement policy allows it, the whole
//    data-parallel operation runs on the device.
//
// Substitution makes one decision per maximal run of relocated filters:
// the fused segment or each member on its own, and on which artifact.
// Every policy shares one candidate order and one ranking rule
// (runtime/placement.h) and differs only in where costs come from.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/attribution.h"
#include "obs/cost_model.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/liquid_compiler.h"
#include "runtime/placement.h"
#include "runtime/store.h"

namespace lm::runtime {

class Executor;

struct RuntimeConfig {
  Placement placement = Placement::kAuto;
  /// Capacity of each inter-task FIFO.
  size_t fifo_capacity = 1024;
  /// Elements a device node drains per batch (device launches amortize the
  /// marshaling cost over this many elements).
  size_t device_batch = 4096;
  /// Executor worker threads shared by all graphs this runtime executes.
  /// 0 → hardware concurrency. Fixed at the first executed graph (the
  /// worker pool is created lazily and lives for the runtime's lifetime).
  size_t worker_threads = 0;
  /// Nonzero → deterministic virtual-scheduler mode: zero worker threads,
  /// every task step serialized on the finishing thread in an order drawn
  /// from this seed. The same seed replays the same interleaving, making
  /// schedule-dependent bugs reproducible. Graphs execute inside finish()
  /// (or at handle destruction) instead of concurrently with start(). This
  /// is the zero-thread mode for debugging and deterministic tests.
  uint64_t scheduler_seed = 0;
  /// false → never substitute fused segment artifacts, only per-filter ones
  /// (the E6 fusion ablation).
  bool allow_fusion = true;
  /// kAdaptive: how many stream elements to profile each candidate on.
  size_t calibration_elements = 64;
  /// kAdaptive: false → skip the calibration prefix entirely and rank
  /// candidates by the compiler's static cost seeds (cost_estimate.h) —
  /// the cold-start path, decision-logged source=static. True (default)
  /// profiles on real data as before.
  bool enable_calibration = true;

  // -- online profiling and mid-run re-substitution (§7, StarPU-style) --

  /// kAdaptive only: every `resubstitution_interval` device batches, a
  /// node compares its live cost model (EWMA of µs per element) against
  /// the calibrated score of the best losing candidate; past the drift
  /// threshold it swaps artifacts for the remainder of the stream. Off by
  /// default — substitution stays a one-shot decision unless asked.
  bool enable_resubstitution = false;
  /// Device batches between drift checks.
  size_t resubstitution_interval = 8;
  /// Relative drift that triggers a swap: live > calibrated × (1 + drift).
  double resubstitution_drift = 0.5;

  /// Where the flight recorder (obs::TraceRecorder::flight()) is dumped as
  /// a Chrome trace when a task faults or a drift swap fires. Empty (the
  /// default) disables dumping; capture still runs.
  std::string flight_dump_path;

  /// Enable critical-path attribution (DESIGN.md §12) for executor graphs
  /// run while a TraceRecorder is installed. Finalization only notes the
  /// graph id; the trace walk itself runs lazily at the first consumer —
  /// attributions(), report() or a telemetry scrape — so the analysis
  /// never sits on the run's own critical path.
  bool attribution = true;

  // -- remote device transport (src/net/, DESIGN.md §9) --

  /// Device servers ("host:port") whose artifacts become substitution
  /// candidates. The runtime itself never dials: net::attach_remote_devices
  /// reads this list, connects, and registers RemoteArtifact proxies via
  /// add_remote_artifact(). Kept in the config so one struct describes the
  /// whole placement universe.
  std::vector<std::string> remote_endpoints;
  /// Per-request deadline for remote batches, ms. Generous by default —
  /// the server runs cycle-accurate simulators.
  int remote_timeout_ms = 30000;
  /// Re-send attempts (each on a fresh connection) before a remote batch
  /// fails over to the local fallback artifact.
  int remote_retries = 1;
};

/// One substitution decision, for logs, tests and the E2 experiment.
struct SubstitutionRecord {
  std::string task_ids;  // "P.a+P.b" for a fused segment
  DeviceKind device = DeviceKind::kCpu;
  bool fused = false;
  /// kAdaptive: the winner's cost in µs per stream element, measured on
  /// the calibration prefix or seeded by the compiler; negative when
  /// nothing costed it.
  double score_us_per_elem = -1.0;
  /// True when the winning artifact runs out-of-process (src/net/).
  bool remote = false;
  /// "host:port" of the serving lmdev when `remote` is set.
  std::string endpoint;
  /// What ranked the winner: "measured" (calibration prefix), "static"
  /// (compiler cost seeds, cold start), or empty (§4.2 preference order,
  /// including a kAdaptive prefix too short to run any candidate).
  std::string source;
};

/// One mid-run artifact swap (enable_resubstitution): the live cost model
/// drifted past the calibrated score of a losing candidate.
struct ResubstitutionRecord {
  std::string task_ids;
  DeviceKind from = DeviceKind::kCpu;
  DeviceKind to = DeviceKind::kCpu;
  /// Live EWMA of the abandoned artifact at the swap, µs per element.
  double live_us_per_elem = 0;
  /// Calibration score of the artifact swapped in, µs per element.
  double calibrated_us_per_elem = 0;
  /// Batch-drain latency percentiles of the abandoned artifact.
  double before_p50_us = 0;
  double before_p99_us = 0;
  /// How many batches the node had drained when the swap fired.
  uint64_t at_batch = 0;
  /// Why the swap fired: "drift" (cost-model divergence) or
  /// "remote-failure" (transport death, swapped to the local fallback).
  std::string reason = "drift";
};

/// Point-in-time view of the runtime's counters. This is a *snapshot*
/// assembled from the thread-safe MetricsRegistry (the live counters are
/// atomics, so executor workers may bump them while another thread
/// snapshots — the old plain-uint64_t version of this struct was the live
/// store, a latent data race).
struct RuntimeStats {
  std::vector<SubstitutionRecord> substitutions;
  std::vector<ResubstitutionRecord> resubstitutions;
  uint64_t graphs_executed = 0;
  uint64_t elements_streamed = 0;
  uint64_t maps_accelerated = 0;
  uint64_t maps_interpreted = 0;
  uint64_t reduces_accelerated = 0;
  uint64_t reduces_interpreted = 0;
  /// kAdaptive: candidate artifacts profiled during calibration.
  uint64_t candidates_profiled = 0;
  /// Marshaling traffic over all device artifacts this runtime fired.
  uint64_t bytes_to_device = 0;
  uint64_t bytes_from_device = 0;
  /// Highest FIFO occupancy observed across all executed graphs.
  uint64_t fifo_high_water = 0;
  /// Trace events rejected by the installed recorder's per-thread cap.
  uint64_t trace_dropped_events = 0;
};

class LiquidRuntime : public bc::TaskGraphHost, public bc::AccelHooks {
 public:
  struct RtGraph;
  struct RtNode;

  /// The compiled program must outlive the runtime.
  LiquidRuntime(CompiledProgram& program, RuntimeConfig config = {});
  ~LiquidRuntime() override;

  /// Runs a program entry point under this runtime (task-graph ops and
  /// map/reduce ops route back here).
  bc::Value call(const std::string& qualified_name,
                 std::vector<bc::Value> args);

  bc::Interpreter& interpreter() { return interp_; }
  /// Refreshes and returns the stats snapshot. The returned reference stays
  /// valid for the runtime's lifetime but its contents are only stable
  /// until the next stats()/reset_stats() call — callers wanting a durable
  /// copy should copy the struct.
  const RuntimeStats& stats() const;
  void reset_stats();
  /// The live, thread-safe metric store backing stats(). Counter names are
  /// listed in DESIGN.md §7 ("Observability").
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  /// Live per-(task, device) cost models fed by every device-node batch.
  const obs::CostModelRegistry& cost_models() const { return cost_models_; }
  /// End-of-run performance report: per-task × per-device batch counts and
  /// latency percentiles, transfer bytes, substitution / re-substitution
  /// history, counters and trace-drop counts. Cheap to build; callable at
  /// any point (mid-stream rows show whatever has drained so far).
  obs::PerfReport report() const;
  /// Critical-path attributions (one per executor graph finalized while a
  /// recorder was installed and config.attribution was on), in execution
  /// order. Graphs pending analysis are resolved here first, reading the
  /// currently installed recorder. Copies under the lock; safe
  /// concurrently with running graphs.
  std::vector<obs::Attribution> attributions() const;
  /// Appends live gauges for the telemetry exporter: per-FIFO depth and
  /// capacity for every graph whose threads are still running, and
  /// per-(task, device) in-flight / throughput / EWMA rows from the cost
  /// models. Safe to call from an exporter thread concurrently with the
  /// workload; intended as a TelemetryHub gauge collector.
  void collect_telemetry(std::vector<obs::GaugeSample>& out) const;
  const RuntimeConfig& config() const { return config_; }

  /// Registers an out-of-process substitution candidate (a net::RemoteArtifact
  /// proxy). Called by net::attach_remote_devices before the first run; the
  /// artifact joins the candidate pool alongside the compiled program's own
  /// store entries.
  void add_remote_artifact(std::unique_ptr<Artifact> artifact);
  /// The remote candidates registered so far (tests / tools).
  const ArtifactStore& remote_store() const { return remote_store_; }

  // -- TaskGraphHost (called by the interpreter) --
  bc::Value make_source(bc::Value array, int rate) override;
  bc::Value make_sink(bc::Value array) override;
  bc::Value make_task(const std::string& task_id, int method_index,
                      bool relocated) override;
  bc::Value connect(bc::Value lhs, bc::Value rhs) override;
  void start(bc::Value graph) override;
  void finish(bc::Value graph) override;

  // -- AccelHooks (called by the interpreter) --
  bool try_map(const std::string& task_id, std::span<const bc::Value> args,
               uint32_t array_mask, bc::Value* out) override;
  bool try_reduce(const std::string& task_id, const bc::Value& array,
                  bc::Value* out) override;

 private:
  struct HotCounters;

  std::shared_ptr<RtGraph> graph_of(const bc::Value& v);
  /// The local artifact a remote substitution falls back to when the
  /// transport dies mid-stream: the CPU artifact for a single task, or a
  /// lazily built (and cached) ChainArtifact for a fused segment.
  Artifact* fallback_for(const Artifact* chosen,
                         const std::vector<std::string>& task_ids);
  /// Task substitution (§4.2, runtime/placement.h): rewrites the node list
  /// of a validated source => filters => sink graph in place, one decision
  /// per maximal run of relocated filters.
  void substitute(RtGraph& g);
  /// Builds the graph's task objects, wires FIFO wakers and submits
  /// everything to the shared executor (replaces thread-per-task).
  void run_executor(RtGraph& g);
  /// The lazily created executor shared by every graph this runtime runs.
  std::shared_ptr<Executor> ensure_executor();
  /// Joins, drains FIFO/marshaling observability, rethrows graph errors.
  void finalize_graph(RtGraph& g);
  /// Appends to the decision log and records one substitution-decision
  /// event in the flight recorder and any installed trace (`extra_args`
  /// carries the losing candidates and their scores).
  void record_substitution(SubstitutionRecord rec, std::string extra_args);
  /// Appends to the re-substitution log, records its decision event the
  /// same way, and snapshots the flight recorder if a dump path is set.
  void record_resubstitution(ResubstitutionRecord rec);
  /// Writes the flight recorder's Chrome trace, with `reason` in its
  /// metadata, to config_.flight_dump_path (no-op when the path is empty).
  void dump_flight(const std::string& reason) const;
  /// Folds the installed recorder's drop count into trace.dropped_events.
  void sync_trace_drops() const;
  const char* placement_name() const;

  class DeviceRun;  // per-device-node batch driver (cost model + resub)
  friend class DeviceRun;

  // Executor task types, one per node kind (liquid_runtime.cpp). Nested so
  // they reach the runtime's private counters and DeviceRun.
  class NodeTask;
  class SourceTask;
  class SinkTask;
  class FilterTask;
  class DeviceTask;

  CompiledProgram& program_;
  RuntimeConfig config_;
  bc::Interpreter interp_;

  obs::MetricsRegistry metrics_;
  obs::CostModelRegistry cost_models_;
  /// Out-of-process candidates (net::RemoteArtifact proxies). Declared after
  /// metrics_ so proxies (which cache metric pointers via their sessions)
  /// destruct first.
  ArtifactStore remote_store_;
  /// Lazily built CPU fallback chains for fused segments, keyed by segment
  /// id. Guarded by subs_mu_ (built during substitution, single-threaded per
  /// graph, but two graphs may substitute concurrently).
  std::vector<std::unique_ptr<Artifact>> fallback_chains_;
  std::unique_ptr<HotCounters> hot_;  // cached instrument pointers
  /// Shared worker pool (runtime/executor.h), created at the first
  /// executed graph. shared_ptr: running graphs co-own it so a graph
  /// handle outliving the runtime still drains safely.
  mutable std::mutex exec_mu_;
  std::shared_ptr<Executor> executor_;
  mutable std::mutex subs_mu_;
  std::vector<SubstitutionRecord> substitutions_;
  std::vector<ResubstitutionRecord> resubstitutions_;
  /// Graphs whose threads may still be running, registered by start() so
  /// collect_telemetry() can read live FIFO depths. Weak: the graph value
  /// owns the RtGraph; a scrape must never extend a finished graph's life.
  mutable std::mutex graphs_mu_;
  std::vector<std::weak_ptr<RtGraph>> active_graphs_;
  /// Per-graph critical-path attributions. finalize_graph only queues the
  /// gid (attribution is post-mortem analysis and must not tax the run);
  /// refresh_attributions() resolves the queue against the installed
  /// recorder at the first consumer — attributions(), report(), or a
  /// telemetry scrape. One attempt per gid: if its events were dropped,
  /// retrying cannot bring them back.
  void refresh_attributions() const;
  mutable std::mutex attr_mu_;
  mutable std::vector<obs::Attribution> attributions_;
  mutable std::vector<uint64_t> attr_pending_;
  /// Recorder drop count already folded into trace.dropped_events.
  mutable std::atomic<uint64_t> trace_drops_seen_{0};
  mutable RuntimeStats stats_snapshot_;
};

}  // namespace lm::runtime
