#include "runtime/liquid_runtime.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <optional>
#include <thread>

#include "runtime/executor.h"
#include "runtime/fifo.h"
#include "runtime/placement.h"
#include "util/error.h"

namespace lm::runtime {

using bc::Value;
using obs::JsonArgs;
using obs::TraceRecorder;
using obs::TraceSpan;

// ---------------------------------------------------------------------------
// Runtime graph representation (§4.1)
// ---------------------------------------------------------------------------

struct LiquidRuntime::RtNode {
  enum class Kind { kSource, kSink, kFilter, kDevice };
  Kind kind = Kind::kFilter;

  // Source / sink.
  Value array;
  int rate = 1;

  // Filter (bytecode-scheduled task).
  int method_index = -1;
  std::string task_id;
  bool relocated = false;
  int arity = 1;

  // Device node (after substitution).
  Artifact* artifact = nullptr;
  std::string label;
  /// Remote artifacts only: the local artifact this node swaps to when the
  /// transport dies mid-stream (graceful degradation, DESIGN.md §9).
  Artifact* fallback = nullptr;

  /// kAdaptive + enable_resubstitution: every calibrated candidate for this
  /// node (including the chosen one), so the drift check can swap mid-run.
  struct ResubAlternative {
    Artifact* artifact = nullptr;
    double us_per_elem = 0;  // calibration score
  };
  std::vector<ResubAlternative> resub_alts;
};

struct LiquidRuntime::RtGraph {
  std::vector<RtNode> nodes;
  bool substituted = false;
  bool started = false;
  bool executed = false;

  /// Process-unique run id, assigned when the graph reaches the executor.
  /// Stamped into every span the run emits (graph.run, exec, drains, fifo
  /// edges) so the attribution engine can separate concurrent graphs.
  uint64_t gid = 0;

  std::vector<std::shared_ptr<ValueFifo>> fifos;
  /// The graph's executor tasks (one per node). Owned here; the executor
  /// and the FIFO wakers hold raw pointers, valid until destruction —
  /// which wait_done() gates on every task having retired.
  std::vector<std::unique_ptr<ExecTask>> tasks;
  /// Co-owned worker pool: a graph handle that outlives the runtime can
  /// still drain (the pool dies with its last graph).
  std::shared_ptr<Executor> executor;
  std::mutex err_mu;
  std::exception_ptr error;

  /// Completion latch: counts unretired tasks. The executor calls
  /// task_retired() as its last touch of each task, so live == 0 means no
  /// worker will ever dereference this graph again.
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t live = 0;

  /// start() timestamp when a recorder was installed (for the graph.run
  /// span emitted at finish()); negative when untraced.
  double trace_start_us = -1;

  /// A graph may be start()ed and never finish()ed (the paper's start() is
  /// fire-and-forget); draining here keeps teardown safe when the last
  /// handle drops — outputs are complete once the handle is gone.
  ~RtGraph() {
    if (!tasks.empty() && !executed) {
      try {
        wait_done();
      } catch (...) {
        // A deterministic-mode deadlock verdict with nowhere to report:
        // unwedge whatever is left and wait for the latch directly.
        for (auto& f : fifos) f->close();
        std::unique_lock<std::mutex> lock(done_mu);
        done_cv.wait(lock, [&] { return live == 0; });
      }
    }
  }

  bool done() {
    std::lock_guard<std::mutex> lock(done_mu);
    return live == 0;
  }

  void task_retired() {
    // Notify *under* the lock: the waiter in wait_done() may destroy this
    // graph the moment it observes live == 0, and it cannot return from
    // wait() until this thread releases done_mu — which happens only after
    // the broadcast has finished touching done_cv.
    std::lock_guard<std::mutex> lock(done_mu);
    --live;
    done_cv.notify_all();
  }

  /// Blocks until every task retired. Deterministic executors have no
  /// worker threads, so this is also where their steps actually run.
  void wait_done() {
    if (executor && executor->deterministic()) {
      executor->drive([this] { return done(); });
    } else {
      std::unique_lock<std::mutex> lock(done_mu);
      done_cv.wait(lock, [&] { return live == 0; });
    }
  }

  void note_error(std::exception_ptr e) {
    // The fault lands in the flight recorder before anything else: even if
    // teardown hangs, the black box already holds the story.
    std::string what = "unknown exception";
    try {
      std::rethrow_exception(e);
    } catch (const std::exception& ex) {
      what = ex.what();
    } catch (...) {
    }
    TraceRecorder::flight().instant("fault", "task-error",
                                    JsonArgs().add("detail", what).str());
    std::lock_guard<std::mutex> lock(err_mu);
    if (!error) error = e;
    // Unblock everyone.
    for (auto& f : fifos) {
      f->close();
    }
  }
};

/// Cached instrument pointers: one registry lookup at construction, one
/// relaxed atomic RMW per increment afterwards.
struct LiquidRuntime::HotCounters {
  obs::MetricsRegistry::Counter* graphs_executed;
  obs::MetricsRegistry::Counter* elements_streamed;
  obs::MetricsRegistry::Counter* maps_accelerated;
  obs::MetricsRegistry::Counter* maps_interpreted;
  obs::MetricsRegistry::Counter* reduces_accelerated;
  obs::MetricsRegistry::Counter* reduces_interpreted;
  obs::MetricsRegistry::Counter* candidates_profiled;
  obs::MetricsRegistry::Counter* static_cost_seeds;
  obs::MetricsRegistry::Counter* placements_static;
  obs::MetricsRegistry::Counter* placements_measured;
  obs::MetricsRegistry::Counter* substitutions;
  obs::MetricsRegistry::Counter* resubstitutions;
  obs::MetricsRegistry::Counter* trace_dropped;
  obs::MetricsRegistry::Counter* flight_dumps;
  obs::MetricsRegistry::Counter* bytes_to_device;
  obs::MetricsRegistry::Counter* bytes_from_device;
  obs::MetricsRegistry::Counter* device_batches;
  obs::MetricsRegistry::MaxGauge* fifo_high_water;

  explicit HotCounters(obs::MetricsRegistry& m)
      : graphs_executed(&m.counter("runtime.graphs_executed")),
        elements_streamed(&m.counter("runtime.elements_streamed")),
        maps_accelerated(&m.counter("runtime.maps_accelerated")),
        maps_interpreted(&m.counter("runtime.maps_interpreted")),
        reduces_accelerated(&m.counter("runtime.reduces_accelerated")),
        reduces_interpreted(&m.counter("runtime.reduces_interpreted")),
        candidates_profiled(&m.counter("runtime.candidates_profiled")),
        static_cost_seeds(&m.counter("analysis.static_cost_seeds")),
        placements_static(&m.counter("analysis.placements_static")),
        placements_measured(&m.counter("analysis.placements_measured")),
        substitutions(&m.counter("runtime.substitutions")),
        resubstitutions(&m.counter("runtime.resubstitutions")),
        trace_dropped(&m.counter("trace.dropped_events")),
        flight_dumps(&m.counter("flight.dumps")),
        bytes_to_device(&m.counter("marshal.bytes_to_device")),
        bytes_from_device(&m.counter("marshal.bytes_from_device")),
        device_batches(&m.counter("marshal.device_batches")),
        fifo_high_water(&m.max_gauge("fifo.high_water")) {}
};

std::shared_ptr<LiquidRuntime::RtGraph> LiquidRuntime::graph_of(
    const Value& v) {
  auto p = std::static_pointer_cast<RtGraph>(v.as_opaque());
  LM_CHECK_MSG(p != nullptr, "value is not a task graph");
  return p;
}

namespace {
Value wrap(std::shared_ptr<LiquidRuntime::RtGraph> g);

/// The analyzer keys StaticCostModel rows by short device names ("cpu",
/// "gpu", "fpga"); artifacts record batches under cost_label() strings
/// ("cpu/bytecode", ...). This maps a runtime device to the analyzer key.
const char* static_device_key(DeviceKind d) {
  switch (d) {
    case DeviceKind::kCpu: return "cpu";
    case DeviceKind::kGpu: return "gpu";
    case DeviceKind::kFpga: return "fpga";
  }
  return "?";
}
}  // namespace

// ---------------------------------------------------------------------------
// Construction and interpreter wiring
// ---------------------------------------------------------------------------

LiquidRuntime::LiquidRuntime(CompiledProgram& program, RuntimeConfig config)
    : program_(program), config_(config), interp_(*program.bytecode) {
  LM_CHECK_MSG(program.bytecode != nullptr,
               "runtime needs a compiled program");
  hot_ = std::make_unique<HotCounters>(metrics_);
  interp_.set_task_host(this);
  interp_.set_accel_hooks(this);
  // Seed the cost models with the compiler's static estimates so a cold
  // registry can already rank candidates (source=static); the first real
  // batch flips each entry to source=measured.
  for (const analysis::StaticCostEstimate& e :
       program_.static_costs.estimates) {
    for (DeviceKind d : {DeviceKind::kCpu, DeviceKind::kGpu,
                         DeviceKind::kFpga}) {
      if (e.device != static_device_key(d)) continue;
      cost_models_.entry(e.task_id, to_string(d)).seed_static(e.us_per_elem);
      hot_->static_cost_seeds->add();
    }
  }
}

LiquidRuntime::~LiquidRuntime() = default;

void LiquidRuntime::add_remote_artifact(std::unique_ptr<Artifact> artifact) {
  LM_CHECK(artifact != nullptr);
  LM_CHECK_MSG(artifact->is_remote(),
               "add_remote_artifact is for net:: proxies only");
  remote_store_.add(std::move(artifact));
}

Artifact* LiquidRuntime::fallback_for(
    const Artifact* chosen, const std::vector<std::string>& task_ids) {
  if (!chosen || !chosen->is_remote() || task_ids.empty()) return nullptr;
  if (task_ids.size() == 1) {
    return program_.store.find(task_ids.front(), DeviceKind::kCpu);
  }
  // Fused segment: the store holds no monolithic CPU artifact under
  // "seg:..." ids, so chain the members' CPU artifacts (cached per segment
  // — two graphs may substitute the same pipeline).
  std::string seg = ArtifactStore::segment_id(task_ids);
  std::lock_guard<std::mutex> lock(subs_mu_);
  for (const auto& c : fallback_chains_) {
    if (c->manifest().task_id == seg) return c.get();
  }
  std::vector<Artifact*> stages;
  for (const std::string& id : task_ids) {
    Artifact* s = program_.store.find(id, DeviceKind::kCpu);
    if (!s) return nullptr;  // no net to fall into; run remote without one
    stages.push_back(s);
  }
  ArtifactManifest m;
  m.task_id = seg;
  m.device = DeviceKind::kCpu;
  m.param_types = stages.front()->manifest().param_types;
  m.return_type = stages.back()->manifest().return_type;
  m.arity = stages.front()->manifest().arity;
  fallback_chains_.push_back(
      std::make_unique<ChainArtifact>(std::move(m), std::move(stages)));
  return fallback_chains_.back().get();
}

Value LiquidRuntime::call(const std::string& qualified_name,
                          std::vector<Value> args) {
  return interp_.call(qualified_name, std::move(args));
}

void LiquidRuntime::sync_trace_drops() const {
  if (TraceRecorder* r = TraceRecorder::current()) {
    uint64_t cur = r->dropped_events();
    uint64_t seen = trace_drops_seen_.exchange(cur, std::memory_order_relaxed);
    if (cur > seen) hot_->trace_dropped->add(cur - seen);
  }
}

const RuntimeStats& LiquidRuntime::stats() const {
  sync_trace_drops();
  RuntimeStats s;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    s.substitutions = substitutions_;
    s.resubstitutions = resubstitutions_;
  }
  s.graphs_executed = hot_->graphs_executed->value();
  s.elements_streamed = hot_->elements_streamed->value();
  s.maps_accelerated = hot_->maps_accelerated->value();
  s.maps_interpreted = hot_->maps_interpreted->value();
  s.reduces_accelerated = hot_->reduces_accelerated->value();
  s.reduces_interpreted = hot_->reduces_interpreted->value();
  s.candidates_profiled = hot_->candidates_profiled->value();
  s.bytes_to_device = hot_->bytes_to_device->value();
  s.bytes_from_device = hot_->bytes_from_device->value();
  s.fifo_high_water = hot_->fifo_high_water->value();
  s.trace_dropped_events = hot_->trace_dropped->value();
  stats_snapshot_ = std::move(s);
  return stats_snapshot_;
}

void LiquidRuntime::reset_stats() {
  metrics_.reset();
  std::lock_guard<std::mutex> lock(subs_mu_);
  substitutions_.clear();
  resubstitutions_.clear();
}

obs::PerfReport LiquidRuntime::report() const {
  sync_trace_drops();
  obs::PerfReport rep;
  rep.policy = placement_name();
  for (const obs::CostModelRegistry::Row& row : cost_models_.rows()) {
    const obs::CostEntry& e = *row.entry;
    if (e.batches() == 0) continue;
    obs::PerfReport::TaskRow r;
    r.task = row.task;
    r.device = row.device;
    r.batches = e.batches();
    r.elements = e.elements();
    const obs::LatencyHistogram& h = e.batch_latency();
    r.p50_us = h.percentile_us(50);
    r.p90_us = h.percentile_us(90);
    r.p99_us = h.percentile_us(99);
    r.max_us = static_cast<double>(h.max_ns()) / 1e3;
    r.mean_us = h.mean_ns() / 1e3;
    r.ewma_us_per_elem = e.ewma_us_per_elem();
    r.static_us_per_elem = e.static_us_per_elem();
    r.cost_source = e.source();
    r.bytes_to_device = e.bytes_to_device();
    r.bytes_from_device = e.bytes_from_device();
    rep.tasks.push_back(std::move(r));
  }
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (const SubstitutionRecord& s : substitutions_) {
      rep.substitutions.push_back(
          {s.task_ids, to_string(s.device), s.fused, s.source});
    }
    for (const ResubstitutionRecord& r : resubstitutions_) {
      rep.resubstitutions.push_back(
          {r.task_ids, to_string(r.from), to_string(r.to), r.live_us_per_elem,
           r.calibrated_us_per_elem, r.before_p50_us, r.before_p99_us,
           r.at_batch});
    }
  }
  // Remote proxies piggyback the server's device-execute latency on their
  // replies (net::ReplyTelemetry); fold those histograms in as their own
  // ":server" rows so wire time (the proxy's cost-model row above) and
  // device time stay separable per task.
  for (const Artifact* a : remote_store_.artifacts()) {
    const obs::LatencyHistogram* sh = a->server_histogram();
    if (!sh || sh->count() == 0) continue;
    obs::LatencyHistogram merged;
    merged.merge(*sh);
    obs::PerfReport::TaskRow r;
    r.task = a->manifest().task_id;
    r.device = a->cost_label() + ":server";
    r.batches = merged.count();
    r.p50_us = merged.percentile_us(50);
    r.p90_us = merged.percentile_us(90);
    r.p99_us = merged.percentile_us(99);
    r.max_us = static_cast<double>(merged.max_ns()) / 1e3;
    r.mean_us = merged.mean_ns() / 1e3;
    rep.tasks.push_back(std::move(r));
  }
  rep.metrics = metrics_.snapshot();
  rep.dropped_trace_events = hot_->trace_dropped->value();
  refresh_attributions();
  {
    std::lock_guard<std::mutex> lock(attr_mu_);
    rep.attributions = attributions_;
  }
  return rep;
}

std::shared_ptr<Executor> LiquidRuntime::ensure_executor() {
  std::lock_guard<std::mutex> lock(exec_mu_);
  if (!executor_) {
    Executor::Options o;
    o.workers = config_.worker_threads;
    o.seed = config_.scheduler_seed;
    o.metrics = &metrics_;
    executor_ = std::make_shared<Executor>(o);
  }
  return executor_;
}

void LiquidRuntime::collect_telemetry(
    std::vector<obs::GaugeSample>& out) const {
  sync_trace_drops();
  {
    std::lock_guard<std::mutex> lock(exec_mu_);
    if (executor_) executor_->collect_telemetry(out);
  }
  {
    std::lock_guard<std::mutex> lock(graphs_mu_);
    size_t gi = 0;
    for (const auto& w : active_graphs_) {
      std::shared_ptr<RtGraph> g = w.lock();
      if (!g) continue;
      for (size_t qi = 0; qi < g->fifos.size(); ++qi) {
        std::vector<std::pair<std::string, std::string>> labels = {
            {"graph", std::to_string(gi)}, {"queue", std::to_string(qi)}};
        out.emplace_back("fifo.depth",
                         static_cast<double>(g->fifos[qi]->size()), labels);
        out.emplace_back("fifo.capacity",
                         static_cast<double>(g->fifos[qi]->capacity()),
                         std::move(labels));
      }
      ++gi;
    }
  }
  for (const obs::CostModelRegistry::Row& row : cost_models_.rows()) {
    std::vector<std::pair<std::string, std::string>> labels = {
        {"task", row.task}, {"device", row.device}};
    const obs::CostEntry& e = *row.entry;
    out.emplace_back("task.in_flight", static_cast<double>(e.in_flight()),
                     labels);
    out.emplace_back("task.batches", static_cast<double>(e.batches()),
                     labels);
    out.emplace_back("task.elements", static_cast<double>(e.elements()),
                     labels);
    out.emplace_back("task.ewma_us_per_elem", e.ewma_us_per_elem(),
                     std::move(labels));
  }
  // Attribution gauges. attr.analyzed_graphs is exported unconditionally
  // (0 before any analysis) so lmtop --check can assert the series exists
  // even when the scrape races the first graph; the per-category and wall
  // gauges describe the most recently analyzed graph. The scrape is a
  // consumer: graphs queued since the last one are analyzed here, on the
  // exporter thread, not on the workload's.
  refresh_attributions();
  {
    std::lock_guard<std::mutex> lock(attr_mu_);
    out.emplace_back("attr.analyzed_graphs",
                     static_cast<double>(attributions_.size()),
                     std::vector<std::pair<std::string, std::string>>{});
    if (!attributions_.empty()) {
      const obs::Attribution& a = attributions_.back();
      out.emplace_back("attr.wall_us", a.wall_us,
                       std::vector<std::pair<std::string, std::string>>{});
      out.emplace_back("attr.coverage", a.coverage(),
                       std::vector<std::pair<std::string, std::string>>{});
      for (const obs::Attribution::Category& c : a.categories) {
        out.emplace_back("attr.category_us", c.us,
                         std::vector<std::pair<std::string, std::string>>{
                             {"category", c.name}});
      }
    }
  }
}

void LiquidRuntime::refresh_attributions() const {
  std::lock_guard<std::mutex> lock(attr_mu_);
  if (attr_pending_.empty()) return;
  obs::TraceRecorder* rec = obs::TraceRecorder::current();
  if (rec == nullptr) return;  // recorder gone; keep the queue for later
  std::vector<uint64_t> pending = std::move(attr_pending_);
  attr_pending_.clear();
  std::vector<obs::Attribution> atts = obs::attribute_trace(rec->events());
  // One attempt per gid: a gid the trace cannot resolve (events dropped)
  // is abandoned rather than retried — the events will not come back.
  for (uint64_t gid : pending) {
    for (obs::Attribution& a : atts) {
      if (a.gid != gid || a.wall_us <= 0) continue;
      attributions_.push_back(std::move(a));
      break;
    }
  }
}

std::vector<obs::Attribution> LiquidRuntime::attributions() const {
  refresh_attributions();
  std::lock_guard<std::mutex> lock(attr_mu_);
  return attributions_;
}

void LiquidRuntime::dump_flight(const std::string& reason) const {
  if (config_.flight_dump_path.empty()) return;
  std::ofstream out(config_.flight_dump_path);
  out << TraceRecorder::flight().chrome_trace_json(reason);
  if (out) hot_->flight_dumps->add();
}

const char* LiquidRuntime::placement_name() const {
  switch (config_.placement) {
    case Placement::kAuto: return "auto";
    case Placement::kCpuOnly: return "cpu";
    case Placement::kGpuOnly: return "gpu";
    case Placement::kFpgaOnly: return "fpga";
    case Placement::kAdaptive: return "adaptive";
  }
  return "?";
}

void LiquidRuntime::record_substitution(SubstitutionRecord rec,
                                        std::string extra_args) {
  hot_->substitutions->add();
  if (rec.source == "static") {
    hot_->placements_static->add();
  } else if (rec.source == "measured") {
    hot_->placements_measured->add();
  }
  JsonArgs args;
  args.add("tasks", rec.task_ids)
      .add("device", to_string(rec.device))
      .add("fused", rec.fused)
      .add("policy", placement_name());
  if (rec.remote) {
    args.add("remote", true).add("endpoint", rec.endpoint);
  }
  if (config_.placement == Placement::kAdaptive) {
    args.add("calibrated", rec.source == "measured");
    if (rec.score_us_per_elem >= 0) {
      args.add("score_us_per_elem", rec.score_us_per_elem);
    }
  }
  if (!rec.source.empty()) args.add("source", rec.source);
  std::string body = std::move(args).str();
  if (!extra_args.empty()) {
    body += ',';
    body += extra_args;
  }
  obs::record_instant(TraceRecorder::current(), "decision", "substitution",
                      std::move(body));
  std::lock_guard<std::mutex> lock(subs_mu_);
  substitutions_.push_back(std::move(rec));
}

void LiquidRuntime::record_resubstitution(ResubstitutionRecord rec) {
  hot_->resubstitutions->add();
  obs::record_instant(
      TraceRecorder::current(), "decision", "resubstitution",
      JsonArgs()
          .add("tasks", rec.task_ids)
          .add("reason", rec.reason)
          .add("from", to_string(rec.from))
          .add("to", to_string(rec.to))
          .add("live_us_per_elem", rec.live_us_per_elem)
          .add("calibrated_us_per_elem", rec.calibrated_us_per_elem)
          .add("before_p50_us", rec.before_p50_us)
          .add("before_p99_us", rec.before_p99_us)
          .add("at_batch", rec.at_batch)
          .str());
  // The swap is a "something changed mid-run" moment worth a black-box
  // snapshot: it captures the drain history that triggered the decision.
  dump_flight("resubstitution: " + rec.task_ids);
  std::lock_guard<std::mutex> lock(subs_mu_);
  resubstitutions_.push_back(std::move(rec));
}

// ---------------------------------------------------------------------------
// TaskGraphHost: graph construction (§4.1)
// ---------------------------------------------------------------------------

namespace {
Value wrap(std::shared_ptr<LiquidRuntime::RtGraph> g) {
  return Value::opaque(std::static_pointer_cast<void>(std::move(g)));
}

/// Checked before substitution, so the walk can assume source => ... =>
/// sink. The frontend already rejects every other shape.
void validate_shape(const std::vector<LiquidRuntime::RtNode>& nodes) {
  using Kind = LiquidRuntime::RtNode::Kind;
  if (nodes.size() < 2 || nodes.front().kind != Kind::kSource ||
      nodes.back().kind != Kind::kSink) {
    throw RuntimeError(
        "task graph must be source => filters... => sink to execute");
  }
  for (size_t i = 1; i + 1 < nodes.size(); ++i) {
    if (nodes[i].kind != Kind::kFilter && nodes[i].kind != Kind::kDevice) {
      throw RuntimeError("interior task-graph nodes must be filters");
    }
  }
}
}  // namespace

Value LiquidRuntime::make_source(Value array, int rate) {
  auto g = std::make_shared<RtGraph>();
  RtNode n;
  n.kind = RtNode::Kind::kSource;
  n.array = std::move(array);
  n.rate = rate;
  g->nodes.push_back(std::move(n));
  return wrap(std::move(g));
}

Value LiquidRuntime::make_sink(Value array) {
  auto g = std::make_shared<RtGraph>();
  RtNode n;
  n.kind = RtNode::Kind::kSink;
  n.array = std::move(array);
  g->nodes.push_back(std::move(n));
  return wrap(std::move(g));
}

Value LiquidRuntime::make_task(const std::string& task_id, int method_index,
                               bool relocated) {
  auto g = std::make_shared<RtGraph>();
  RtNode n;
  n.kind = RtNode::Kind::kFilter;
  n.method_index = method_index;
  n.task_id = task_id;
  n.relocated = relocated;
  n.arity = program_.bytecode->methods[static_cast<size_t>(method_index)]
                .num_params;
  g->nodes.push_back(std::move(n));
  return wrap(std::move(g));
}

Value LiquidRuntime::connect(Value lhs, Value rhs) {
  auto a = graph_of(lhs);
  auto b = graph_of(rhs);
  auto g = std::make_shared<RtGraph>();
  g->nodes = a->nodes;
  g->nodes.insert(g->nodes.end(), b->nodes.begin(), b->nodes.end());
  return wrap(std::move(g));
}

// ---------------------------------------------------------------------------
// Task substitution (§4.2, runtime/placement.h)
// ---------------------------------------------------------------------------

namespace {

/// A task's or fused segment's candidates, costed, and the pick among them.
struct Ranked {
  std::vector<Candidate> candidates;
  size_t best = 0;
  /// Measured costs only: the pick's output on the calibration prefix,
  /// which the next stage calibrates on.
  std::vector<Value> out;

  /// The pick, or an uncosted null candidate when nothing competed.
  Candidate winner() const {
    return candidates.empty() ? Candidate{} : candidates[best];
  }
};

/// The measured cost source: one warm-up run on the calibration prefix,
/// then the better of two timed runs. The candidate stays uncosted when the
/// prefix cannot feed it even once (a zero time here once made such a
/// candidate look infinitely fast), or when it is remote and its endpoint
/// died mid-calibration: it drops out of the race.
Candidate profile(Artifact* a, const std::vector<Value>& in,
                  std::vector<Value>* out,
                  obs::MetricsRegistry::Counter& profiled) {
  size_t arity = static_cast<size_t>(a->manifest().arity);
  size_t usable = (in.size() / arity) * arity;
  if (usable == 0) return {a};
  std::span<const Value> batch(in.data(), usable);
  profiled.add();
  double best = 1e300;
  try {
    *out = a->process(batch);
    for (int rep = 0; rep < 2; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      *out = a->process(batch);
      auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
  } catch (const TransportError&) {
    return {a};
  }
  return {a, best, best * 1e6 / static_cast<double>(usable)};
}

/// One decision-event entry per candidate: its measured time or its seed,
/// or the fact that its cost source had none.
std::string candidate_json(const Candidate& c, CostSource source) {
  JsonArgs j;
  j.add("tasks", c.artifact->manifest().task_id)
      .add("device", to_string(c.artifact->manifest().device));
  if (c.artifact->is_remote()) j.add("endpoint", c.artifact->location());
  if (source == CostSource::kMeasured) {
    if (c.costed()) {
      j.add("time_us", c.cost * 1e6);
    } else {
      j.add("eligible", false);
    }
  } else if (c.costed()) {
    j.add("static_us_per_elem", c.cost);
  } else {
    j.add("seeded", false);
  }
  return "{" + std::move(j).str() + "}";
}

}  // namespace

void LiquidRuntime::substitute(RtGraph& g) {
  if (g.substituted) return;
  g.substituted = true;
  TraceSpan span("runtime", "substitute");
  const CostSource source = config_.placement != Placement::kAdaptive
                                ? CostSource::kNone
                            : config_.enable_calibration
                                ? CostSource::kMeasured
                                : CostSource::kStatic;
  // Costed decisions render every candidate into their decision event, so
  // a trace shows each loser and by how much.
  const bool explain =
      source != CostSource::kNone && TraceRecorder::current() != nullptr;

  // Measured costs come from a calibration prefix: the first elements of
  // the actual stream, so profiling sees representative data (§7). The
  // walk threads it through each stage's pick.
  std::vector<Value> stream;
  if (source == CostSource::kMeasured) {
    const bc::ArrayRef& src = g.nodes.front().array.as_array();
    size_t k = std::min(config_.calibration_elements, src->size());
    stream.reserve(k);
    for (size_t i = 0; i < k; ++i) stream.push_back(bc::array_get(*src, i));
  }

  auto rank = [&](const std::string& id, const std::vector<Value>& in) {
    Ranked r;
    r.candidates = enumerate_candidates(id, config_.placement, source,
                                        program_.store, remote_store_);
    std::vector<std::vector<Value>> outs(r.candidates.size());
    for (size_t k = 0; k < r.candidates.size(); ++k) {
      Candidate& c = r.candidates[k];
      if (source == CostSource::kMeasured) {
        c = profile(c.artifact, in, &outs[k], *hot_->candidates_profiled);
      } else if (source == CostSource::kStatic) {
        if (const analysis::StaticCostEstimate* e = program_.static_costs.find(
                id, static_device_key(c.artifact->manifest().device))) {
          c.cost = c.us_per_elem = e->us_per_elem;
        }
      }
    }
    r.best = pick_candidate(r.candidates);
    if (r.winner().costed()) r.out = std::move(outs[r.best]);
    return r;
  };

  std::vector<RtNode> out;
  // One decision: the winner becomes a device node, or a CPU winner stays
  // an interpreter filter unless it is remote or may later swap devices.
  // `filter` is the member's node, null for a fused segment.
  auto emit = [&](const Ranked& r, const std::vector<std::string>& ids,
                  const RtNode* filter, std::string details) {
    const Candidate w = r.winner();
    Artifact* a = w.artifact;
    // A node can re-substitute only toward a measured alternative, so it
    // needs a measured loser besides its own score.
    std::vector<RtNode::ResubAlternative> alts;
    if (config_.enable_resubstitution && source == CostSource::kMeasured) {
      for (const Candidate& c : r.candidates) {
        if (c.costed()) alts.push_back({c.artifact, c.us_per_elem});
      }
      if (alts.size() < 2) alts.clear();
    }
    SubstitutionRecord rec;
    for (const std::string& id : ids) {
      if (!rec.task_ids.empty()) rec.task_ids += "+";
      rec.task_ids += id;
    }
    rec.fused = filter == nullptr;
    if (a != nullptr) {
      rec.device = a->manifest().device;
      rec.remote = a->is_remote();
      if (rec.remote) rec.endpoint = a->location();
    }
    if (w.costed()) {
      rec.score_us_per_elem = w.us_per_elem;
      rec.source = source == CostSource::kMeasured ? "measured" : "static";
    }
    if (a == nullptr || (filter != nullptr && alts.empty() &&
                         rec.device == DeviceKind::kCpu && !rec.remote)) {
      out.push_back(*filter);
    } else {
      RtNode dev;
      dev.kind = RtNode::Kind::kDevice;
      dev.artifact = a;
      dev.arity = a->manifest().arity;
      dev.label = a->manifest().task_id;
      dev.fallback = fallback_for(a, ids);
      dev.resub_alts = std::move(alts);
      out.push_back(std::move(dev));
    }
    record_substitution(std::move(rec), std::move(details));
  };

  for (size_t i = 0; i < g.nodes.size();) {
    const RtNode& n = g.nodes[i];
    if (n.kind != RtNode::Kind::kFilter || !n.relocated) {
      // A fixed filter runs on the interpreter; so does its share of the
      // calibration prefix.
      if (n.kind == RtNode::Kind::kFilter && !stream.empty()) {
        size_t arity = static_cast<size_t>(n.arity);
        std::vector<Value> next;
        std::vector<Value> args(arity);
        for (size_t e = 0; e + arity <= stream.size(); e += arity) {
          for (size_t k = 0; k < arity; ++k) args[k] = stream[e + k];
          next.push_back(interp_.call(n.method_index, args));
        }
        stream = std::move(next);
      }
      out.push_back(n);
      ++i;
      continue;
    }
    // The maximal run of relocated filters [i, j).
    size_t j = i;
    std::vector<std::string> ids;
    while (j < g.nodes.size() && g.nodes[j].kind == RtNode::Kind::kFilter &&
           g.nodes[j].relocated) {
      ids.push_back(g.nodes[j++].task_id);
    }
    // The largest substitution, the fused segment, against the chain of
    // each member's own pick.
    Ranked fused;
    if (ids.size() > 1 && config_.allow_fusion) {
      fused = rank(ArtifactStore::segment_id(ids), stream);
    }
    std::vector<Ranked> members;
    std::vector<Candidate> picks;
    std::vector<Value> chain_stream = stream;
    for (const std::string& id : ids) {
      members.push_back(rank(id, chain_stream));
      picks.push_back(members.back().winner());
      if (picks.back().costed()) chain_stream = std::move(members.back().out);
    }

    // The decision event's cost details: the segment's fused and chain
    // costs where known, and every candidate the decision weighed.
    auto details = [&](const Ranked* member) {
      if (!explain) return std::string();
      const bool measured = source == CostSource::kMeasured;
      const double to_us = measured ? 1e6 : 1.0;
      JsonArgs args;
      if (fused.winner().costed()) {
        args.add(measured ? "fused_time_us" : "fused_static_us",
                 fused.winner().cost * to_us);
      }
      double chain = 0;
      bool chain_costed = true;
      for (const Candidate& p : picks) {
        chain_costed = chain_costed && p.costed();
        chain += p.cost;
      }
      if (chain_costed) {
        args.add(measured ? "chain_time_us" : "chain_static_us",
                 chain * to_us);
      }
      std::string list = "[";
      auto weigh = [&](const Ranked& r) {
        for (const Candidate& c : r.candidates) {
          if (list.size() > 1) list += ',';
          list += candidate_json(c, source);
        }
      };
      if (member != nullptr) {
        weigh(*member);
      } else {
        weigh(fused);
        for (const Ranked& m : members) weigh(m);
      }
      list += ']';
      return std::move(args.add_raw("candidates", list)).str();
    };

    if (!fused.candidates.empty() && prefer_fused(fused.winner(), picks)) {
      emit(fused, ids, nullptr, details(nullptr));
      if (fused.winner().costed()) stream = std::move(fused.out);
    } else {
      for (size_t k = 0; k < ids.size(); ++k) {
        emit(members[k], {ids[k]}, &g.nodes[i + k], details(&members[k]));
      }
      stream = std::move(chain_stream);
    }
    i = j;
  }
  g.nodes = std::move(out);
}

// ---------------------------------------------------------------------------
// DeviceRun: per-device-node batch driver (§7 online profiling)
// ---------------------------------------------------------------------------

/// Smoothing factor of the per-(task, device) EWMA cost models.
constexpr double kCostEwmaAlpha = 0.25;

/// Drives one device node's drains: times every batch into the node's
/// (task, device) cost model, accounts marshaling traffic, feeds the flight
/// recorder, and — when the node carries calibrated alternatives — runs the
/// periodic drift check that may swap the artifact mid-run.
///
/// Every batch takes one path: issue() hands it to the bound artifact's
/// process_async, ready() says whether it completed, and collect()
/// resolves it. A local artifact completes at issue; a remote one
/// completes later, from the poll thread, and wake_on_completion() has it
/// wake the parked task then.
class LiquidRuntime::DeviceRun {
 public:
  /// `gid` and `node_index` are stamped into drain spans so the
  /// attribution engine can bind them to the owning graph's task lane.
  DeviceRun(LiquidRuntime& rt, RtNode& node, TraceRecorder* rec, uint64_t gid,
            int node_index)
      : rt_(rt),
        node_(node),
        rec_(rec),
        trace_gid_(gid),
        trace_node_(node_index) {
    bind(node.artifact);
  }

  size_t arity() const { return static_cast<size_t>(cur_->manifest().arity); }

  uint64_t batches() const { return batches_; }
  uint64_t elements() const { return elements_; }
  uint64_t bytes_to_device() const { return bytes_to_; }
  uint64_t bytes_from_device() const { return bytes_from_; }

  bool in_flight() const { return batch_.has_value(); }
  bool ready() const {
    return batch_->completion->state.load(std::memory_order_acquire) ==
           Completion::kDone;
  }

  /// Starts one batch on the bound artifact. `inputs` must stay untouched
  /// until collect() returns: a remote batch reads them until it
  /// completes, and a failed one is replayed from them. At most one batch
  /// in flight per node. An exception from a local artifact propagates
  /// from here.
  void issue(std::span<const Value> inputs) {
    LM_CHECK_MSG(!batch_, "device node already has a batch in flight");
    Batch b;
    b.inputs = inputs;
    b.artifact = cur_;
    b.cost = cost_;
    b.ts = &cur_->transfer_stats();
    b.to0 = b.ts->bytes_to_device;
    b.from0 = b.ts->bytes_from_device;
    b.t0 = std::chrono::steady_clock::now();
    b.completion = std::make_shared<Completion>();
    cost_->begin_batch();
    try {
      b.op = cur_->process_async(inputs, [c = b.completion] {
        if (c->state.exchange(Completion::kDone, std::memory_order_acq_rel) ==
            Completion::kArmed) {
          c->ex->wake(c->task);
          c->ex->note_external_end();
        }
      });
    } catch (...) {
      cost_->end_batch();
      throw;
    }
    batch_ = std::move(b);
  }

  /// Asks for `task` to be woken when the in-flight batch completes. False
  /// when it completed meanwhile: collect() now instead of parking. Call
  /// at most once per batch. The external-pending bracket opens only here,
  /// so a batch that completed at issue never touches the executor: no
  /// park, no step, no wake-up of idle workers. It opens before arming and
  /// closes after the completion's wake, so it covers the whole window in
  /// which that wake is the only thing that can run this task, and
  /// deterministic drive() never mistakes the wait for a deadlock.
  bool wake_on_completion(ExecTask* task) {
    Completion& c = *batch_->completion;
    c.task = task;
    c.ex = task->executor();
    c.ex->note_external_begin();
    int expected = Completion::kPending;
    if (c.state.compare_exchange_strong(expected, Completion::kArmed,
                                        std::memory_order_acq_rel)) {
      return true;
    }
    c.ex->note_external_end();
    return false;
  }

  /// Resolves the completed batch on the calling worker thread and charges
  /// it to the entry and artifact that served it. On a remote transport
  /// failure it swaps to the node's local fallback and replays the batch
  /// through issue() — artifacts are pure functions of their input batch,
  /// so at-least-once is safe.
  std::vector<Value> collect() {
    Batch b = std::move(*batch_);
    batch_.reset();
    std::vector<Value> out;
    try {
      out = b.op->take_results();
    } catch (const TransportError& e) {
      b.cost->end_batch();
      if (!b.artifact->is_remote() || node_.fallback == nullptr) throw;
      TraceRecorder::flight().instant(
          "fault", "remote-transport",
          JsonArgs().add("detail", std::string(e.what())).str());
      ResubstitutionRecord rec;
      rec.task_ids = b.artifact->manifest().task_id;
      rec.from = b.artifact->manifest().device;
      rec.to = node_.fallback->manifest().device;
      rec.live_us_per_elem = b.cost->ewma_us_per_elem();
      rec.before_p50_us = b.cost->batch_latency().percentile_us(50);
      rec.before_p99_us = b.cost->batch_latency().percentile_us(99);
      rec.at_batch = batches_;
      rec.reason = "remote-failure";
      rt_.metrics_.counter("net.remote_fallbacks").add();
      bind(node_.fallback);
      swapped_ = true;  // the fallback is final; no drift swaps after this
      rt_.record_resubstitution(std::move(rec));
      issue(b.inputs);
      LM_CHECK_MSG(ready(), "a local fallback completes at issue");
      return collect();
    } catch (...) {
      b.cost->end_batch();
      throw;
    }
    auto t1 = std::chrono::steady_clock::now();
    double dt = std::chrono::duration<double>(t1 - b.t0).count();
    b.cost->end_batch();
    size_t n = b.inputs.size();
    uint64_t dto = b.ts->bytes_to_device - b.to0;
    uint64_t dfrom = b.ts->bytes_from_device - b.from0;
    obs::record_complete(rec_, "task", "drain:" + b.artifact->manifest().task_id,
                         b.t0, dt * 1e6,
                         JsonArgs()
                             .add("elements", static_cast<uint64_t>(n))
                             .add("bytes", dto + dfrom)
                             .add("gid", trace_gid_)
                             .add("node", trace_node_)
                             .add("device", b.artifact->cost_label())
                             .str());
    b.cost->record_batch(dt, n, kCostEwmaAlpha);
    b.cost->record_transfer(dto, dfrom);
    rt_.hot_->device_batches->add();
    rt_.hot_->bytes_to_device->add(dto);
    rt_.hot_->bytes_from_device->add(dfrom);
    ++batches_;
    elements_ += n;
    bytes_to_ += dto;
    bytes_from_ += dfrom;
    maybe_resubstitute();
    return out;
  }

 private:
  void bind(Artifact* a) {
    cur_ = a;
    // cost_label() keeps a remote GPU's history separate from the local
    // GPU's: the remote entry absorbs round-trip and wire time, so scores
    // compared across the two are wire-cost-aware by construction.
    cost_ = &rt_.cost_models_.entry(a->manifest().task_id, a->cost_label());
  }

  /// Every `resubstitution_interval` batches: if the live per-element cost
  /// has drifted past the best calibrated loser by more than the configured
  /// margin, swap artifacts for the remainder of the stream. One swap per
  /// node per run keeps the policy stable (no flapping).
  void maybe_resubstitute() {
    if (swapped_ || node_.resub_alts.size() < 2) return;
    if (++since_check_ < rt_.config_.resubstitution_interval) return;
    since_check_ = 0;
    double live = cost_->ewma_us_per_elem();
    if (live <= 0) return;
    const RtNode::ResubAlternative* target = nullptr;
    for (const auto& alt : node_.resub_alts) {
      if (alt.artifact == cur_) continue;
      if (!target || alt.us_per_elem < target->us_per_elem) target = &alt;
    }
    if (!target) return;
    if (live <=
        target->us_per_elem * (1.0 + rt_.config_.resubstitution_drift)) {
      return;
    }
    ResubstitutionRecord rec;
    rec.task_ids = cur_->manifest().task_id;
    rec.from = cur_->manifest().device;
    rec.to = target->artifact->manifest().device;
    rec.live_us_per_elem = live;
    rec.calibrated_us_per_elem = target->us_per_elem;
    rec.before_p50_us = cost_->batch_latency().percentile_us(50);
    rec.before_p99_us = cost_->batch_latency().percentile_us(99);
    rec.at_batch = batches_;
    bind(target->artifact);
    swapped_ = true;
    rt_.record_resubstitution(std::move(rec));
  }

  /// Handshake between the completion callback and the task. The callback
  /// moves kPending or kArmed to kDone; the task moves kPending to kArmed
  /// only when it is about to park. The callback wakes the task only when
  /// it finds kArmed, so a batch that completes at issue wakes nobody.
  struct Completion {
    enum : int { kPending, kArmed, kDone };
    std::atomic<int> state{kPending};
    // Written before the kArmed CAS, read after the exchange that sees it.
    ExecTask* task = nullptr;
    Executor* ex = nullptr;
  };

  /// The in-flight batch. Everything the issue side measured is pinned
  /// here so collect() charges the batch to the entry and artifact that
  /// actually served it, even if the node rebinds in between.
  struct Batch {
    std::unique_ptr<AsyncBatch> op;
    std::shared_ptr<Completion> completion;
    std::span<const Value> inputs;  // replayed on a remote failure
    Artifact* artifact = nullptr;
    obs::CostEntry* cost = nullptr;
    const TransferStats* ts = nullptr;
    uint64_t to0 = 0, from0 = 0;
    std::chrono::steady_clock::time_point t0;
  };

  LiquidRuntime& rt_;
  RtNode& node_;
  TraceRecorder* rec_;
  const uint64_t trace_gid_;
  const int trace_node_;
  Artifact* cur_ = nullptr;
  obs::CostEntry* cost_ = nullptr;
  std::optional<Batch> batch_;
  uint64_t batches_ = 0, elements_ = 0, bytes_to_ = 0, bytes_from_ = 0;
  uint64_t since_check_ = 0;
  bool swapped_ = false;
};

// ---------------------------------------------------------------------------
// Execution (§4.1: tasks over the shared executor, FIFO connections)
// ---------------------------------------------------------------------------

void LiquidRuntime::start(Value graph) {
  auto g = graph_of(graph);
  if (g->started || g->executed) return;
  validate_shape(g->nodes);
  substitute(*g);
  run_executor(*g);  // submits tasks; finish() waits on the latch
  {
    // Expose the running graph to the telemetry plane (live FIFO depths).
    // Prune dead entries here rather than on scrape so the exporter path
    // stays read-mostly.
    std::lock_guard<std::mutex> lock(graphs_mu_);
    std::erase_if(active_graphs_,
                  [](const std::weak_ptr<RtGraph>& w) { return w.expired(); });
    active_graphs_.push_back(g);
  }
  g->started = true;
}

void LiquidRuntime::finish(Value graph) {
  auto g = graph_of(graph);
  if (g->executed) return;
  if (!g->started) {
    validate_shape(g->nodes);
    substitute(*g);
    run_executor(*g);
  }
  finalize_graph(*g);
}

/// Waits for every task to retire (deterministic mode: actually runs the
/// steps), harvests per-graph observability (FIFO high-water marks), and
/// rethrows the first task error.
void LiquidRuntime::finalize_graph(RtGraph& g) {
  g.wait_done();
  g.tasks.clear();
  g.executed = true;
  hot_->graphs_executed->add();
  hot_->elements_streamed->add(g.nodes.front().array.as_array()->size());

  TraceRecorder* rec = TraceRecorder::current();
  for (size_t i = 0; i < g.fifos.size(); ++i) {
    uint64_t hw = g.fifos[i]->high_water();
    hot_->fifo_high_water->observe(hw);
    if (rec) {
      rec->counter("fifo", "fifo." + std::to_string(i) + ".high_water",
                   static_cast<double>(hw));
      // Edge statistics for the attribution engine: cumulative blocked
      // time on both sides of the FIFO between node i and node i+1.
      rec->instant("fifo", "edge:" + std::to_string(i),
                   JsonArgs()
                       .add("gid", g.gid)
                       .add("edge", static_cast<int>(i))
                       .add("producer_blocked_us",
                            g.fifos[i]->producer_blocked_us())
                       .add("consumer_blocked_us",
                            g.fifos[i]->consumer_blocked_us())
                       .add("high_water", hw)
                       .add("capacity",
                            static_cast<uint64_t>(g.fifos[i]->capacity()))
                       .str());
    }
  }
  if (rec && g.trace_start_us >= 0) {
    rec->complete("runtime", "graph.run", g.trace_start_us,
                  rec->now_us() - g.trace_start_us,
                  JsonArgs()
                      .add("nodes", static_cast<uint64_t>(g.nodes.size()))
                      .add("gid", g.gid)
                      .str());
    if (config_.attribution && g.gid != 0) {
      // Attribution is post-mortem analysis: only queue the gid here. The
      // trace walk runs at the first consumer (attributions(), report(),
      // a telemetry scrape) so the run itself never pays for it.
      std::lock_guard<std::mutex> lock(attr_mu_);
      attr_pending_.push_back(g.gid);
    }
  }
  if (g.error) {
    dump_flight("task-fault");
    std::rethrow_exception(g.error);
  }
}

// ---------------------------------------------------------------------------
// Executor tasks: one cooperative state machine per graph node
// ---------------------------------------------------------------------------

namespace {
/// The one batch bound. Per step a source stages at most this many values,
/// a sink pops at most this many, and a filter fires at most this many
/// times (popping up to kStepQuantum × arity values). Bounds step latency
/// so workers interleave tasks fairly and the deterministic scheduler gets
/// frequent decision points.
constexpr size_t kStepQuantum = 256;
}  // namespace

/// Shared shape of all node tasks: step() delegates to run_slice() and
/// converts a thrown error into the graph's hop-by-hop unwind (close the
/// input so the producer above fails fast, record the error — which sweeps
/// every queue — then finish the output), exactly like the old per-node
/// threads. Emits one "task" complete-span covering first step through
/// retirement so traces keep their per-task rows.
class LiquidRuntime::NodeTask : public ExecTask {
 public:
  NodeTask(LiquidRuntime& rt, RtGraph* g, std::shared_ptr<ValueFifo> in,
           std::shared_ptr<ValueFifo> out, std::string trace_name)
      : rt_(rt),
        graph_(g),
        in_(std::move(in)),
        out_(std::move(out)),
        rec_(TraceRecorder::current()),
        trace_name_(std::move(trace_name)) {}

  StepResult step() final {
    if (rec_ && first_us_ < 0) first_us_ = rec_->now_us();
    try {
      StepResult r = run_slice();
      if (r == StepResult::kDone) emit_span();
      return r;
    } catch (...) {
      if (in_) in_->close();
      graph_->note_error(std::current_exception());
      if (out_) out_->finish();
      emit_span();
      return StepResult::kDone;
    }
  }

  void retired() final { graph_->task_retired(); }

  /// The label this task's "task"/"exec" spans carry ("source",
  /// "filter:<id>", "device:<label>", ...).
  const std::string& span_name() const { return trace_name_; }

 protected:
  /// One bounded slice of the node's work, using only try-operations.
  virtual StepResult run_slice() = 0;
  virtual std::string span_args() const { return {}; }

  /// Moves the outbox downstream, a batch per FIFO call. kOk once it is
  /// empty; kWouldBlock (block reason set) after a failed try on a full
  /// queue, with the rest still staged; kShutdown when downstream closed.
  FifoSignal flush_outbox() {
    while (sent_ < outbox_.size()) {
      size_t moved = 0;
      FifoSignal s = out_->try_push_batch(
          std::span<Value>(outbox_).subspan(sent_), &moved);
      if (s == FifoSignal::kWouldBlock) set_block_reason(BlockReason::kPush);
      if (s != FifoSignal::kOk) return s;
      sent_ += moved;
      pushed_ += moved;
    }
    outbox_.clear();
    sent_ = 0;
    return FifoSignal::kOk;
  }

  LiquidRuntime& rt_;
  RtGraph* graph_;
  std::shared_ptr<ValueFifo> in_, out_;
  /// Captured once at construction: the recorder must stay installed for
  /// the graph's lifetime (install/uninstall around whole runs).
  TraceRecorder* rec_;
  /// Values staged for the output FIFO in stream order, kept across a
  /// kWouldBlock park; the first `sent_` have already moved.
  std::vector<Value> outbox_;
  size_t sent_ = 0;
  uint64_t pushed_ = 0;

 private:
  void emit_span() {
    if (!rec_ || first_us_ < 0) return;
    rec_->complete("task", trace_name_, first_us_, rec_->now_us() - first_us_,
                   span_args());
  }

  std::string trace_name_;
  double first_us_ = -1;
};

class LiquidRuntime::SourceTask final : public NodeTask {
 public:
  SourceTask(LiquidRuntime& rt, RtGraph* g, RtNode* node,
             std::shared_ptr<ValueFifo> out)
      : NodeTask(rt, g, nullptr, std::move(out), "source"), node_(node) {}

 protected:
  StepResult run_slice() override {
    const bc::ArrayRef& src = node_->array.as_array();
    if (outbox_.empty()) {
      size_t end = std::min(src->size(), i_ + kStepQuantum);
      for (; i_ < end; ++i_) outbox_.push_back(bc::array_get(*src, i_));
    }
    switch (flush_outbox()) {
      case FifoSignal::kOk:
        break;
      case FifoSignal::kWouldBlock:
        return StepResult::kBlocked;
      default:  // kShutdown: downstream died, nothing left to do here
        return StepResult::kDone;
    }
    if (i_ < src->size()) return StepResult::kReady;
    out_->finish();
    return StepResult::kDone;
  }

  std::string span_args() const override {
    return JsonArgs().add("elements", pushed_).str();
  }

 private:
  RtNode* node_;
  size_t i_ = 0;
};

class LiquidRuntime::SinkTask final : public NodeTask {
 public:
  SinkTask(LiquidRuntime& rt, RtGraph* g, RtNode* node,
           std::shared_ptr<ValueFifo> in)
      : NodeTask(rt, g, std::move(in), nullptr, "sink"), node_(node) {}

 protected:
  StepResult run_slice() override {
    const bc::ArrayRef& dst = node_->array.as_array();
    for (size_t budget = kStepQuantum; budget > 0; budget -= batch_.size()) {
      batch_.clear();
      switch (in_->try_pop_batch(budget, &batch_)) {
        case FifoSignal::kOk:
          break;
        case FifoSignal::kWouldBlock:
          set_block_reason(BlockReason::kPop);
          return StepResult::kBlocked;
        default:  // kEndOfStream (complete) or kShutdown (error unwind)
          return StepResult::kDone;
      }
      for (const Value& v : batch_) {
        if (i_ >= dst->size()) {
          throw RuntimeError("sink array too small");
        }
        bc::array_set(*dst, i_++, v);
      }
    }
    return StepResult::kReady;
  }

  std::string span_args() const override {
    return JsonArgs().add("elements", static_cast<uint64_t>(i_)).str();
  }

 private:
  RtNode* node_;
  size_t i_ = 0;
  std::vector<Value> batch_;
};

class LiquidRuntime::FilterTask final : public NodeTask {
 public:
  FilterTask(LiquidRuntime& rt, RtGraph* g, RtNode* node,
             std::shared_ptr<ValueFifo> in, std::shared_ptr<ValueFifo> out)
      : NodeTask(rt, g, std::move(in), std::move(out),
                 "filter:" + node->task_id),
        node_(node),
        interp_(*rt.program_.bytecode),
        args_(static_cast<size_t>(node->arity)) {}

 protected:
  StepResult run_slice() override {
    const size_t k = args_.size();
    for (size_t budget = kStepQuantum;;) {
      // Flush staged results before computing more, and before finish().
      switch (flush_outbox()) {
        case FifoSignal::kOk:
          break;
        case FifoSignal::kWouldBlock:
          return StepResult::kBlocked;
        default:
          // Downstream dead: become a dead consumer of our own input,
          // unwinding the producer blocked above us.
          in_->close();
          return StepResult::kDone;
      }
      if (budget == 0) return StepResult::kReady;
      // Top up to `budget` firings; inbuf_ holds fewer than k values (a
      // partial firing carried over from the last pop).
      switch (in_->try_pop_batch(budget * k - inbuf_.size(), &inbuf_)) {
        case FifoSignal::kOk:
          break;
        case FifoSignal::kWouldBlock:
          set_block_reason(BlockReason::kPop);
          return StepResult::kBlocked;
        default:
          // End of stream (a trailing partial firing is dropped) or shutdown.
          out_->finish();
          return StepResult::kDone;
      }
      const size_t fires = inbuf_.size() / k;
      for (size_t f = 0; f < fires; ++f) {
        for (size_t j = 0; j < k; ++j) args_[j] = std::move(inbuf_[f * k + j]);
        outbox_.push_back(interp_.call(node_->method_index, args_));
      }
      inbuf_.erase(inbuf_.begin(),
                   inbuf_.begin() + static_cast<long>(fires * k));
      budget -= fires;
    }
  }

  std::string span_args() const override {
    return JsonArgs().add("fires", pushed_).str();
  }

 private:
  RtNode* node_;
  /// A private interpreter per task: the module is shared read-only, and
  /// two steps of the same task never run concurrently.
  bc::Interpreter interp_;
  std::vector<Value> args_;
  std::vector<Value> inbuf_;
};

class LiquidRuntime::DeviceTask final : public NodeTask {
 public:
  DeviceTask(LiquidRuntime& rt, RtGraph* g, RtNode* node, int node_index,
             std::shared_ptr<ValueFifo> in, std::shared_ptr<ValueFifo> out)
      : NodeTask(rt, g, std::move(in), std::move(out),
                 "device:" + node->label),
        run_(rt, *node, TraceRecorder::current(), g->gid, node_index) {}

 protected:
  StepResult run_slice() override {
    // 1. Resolve the in-flight batch — or keep waiting on it (a close()
    //    waker may fire while an RPC is still in flight; its completion
    //    will wake us again). The outbox is empty whenever a batch drains:
    //    every issue follows a complete flush.
    if (run_.in_flight()) {
      if (!run_.ready()) {
        set_block_reason(BlockReason::kRpc);
        return StepResult::kBlocked;
      }
      collect();
    }
    // 2. Flush buffered results downstream.
    switch (flush_outbox()) {
      case FifoSignal::kOk:
        break;
      case FifoSignal::kWouldBlock:
        return StepResult::kBlocked;
      default:
        in_->close();  // hop-by-hop unwind
        return StepResult::kDone;
    }
    if (eof_) {
      out_->finish();
      return StepResult::kDone;
    }
    // 3. Gather up to one device batch, firing opportunistically on
    //    whatever arrived (like the old pop_batch loop — batch size only
    //    affects amortization, never the output, which depends solely on
    //    element order).
    const size_t k = run_.arity();
    const size_t target = std::max<size_t>(rt_.config_.device_batch, 1) * k;
    while (pending_.size() < target) {
      FifoSignal s = in_->try_pop_batch(target - pending_.size(), &pending_);
      if (s == FifoSignal::kWouldBlock) break;
      if (s != FifoSignal::kOk) {
        eof_ = true;  // kEndOfStream, or kShutdown: drain what we have
        break;
      }
    }
    size_t usable = (pending_.size() / k) * k;
    if (usable == 0) {
      if (eof_) {
        out_->finish();
        return StepResult::kDone;
      }
      set_block_reason(BlockReason::kPop);
      return StepResult::kBlocked;  // parked after the failed try above
    }
    // 4. One batch per step. A batch that completed at issue (every local
    //    artifact) is collected in this step; one still in flight (an RPC)
    //    parks this task, not a worker thread, until its completion wakes
    //    it.
    run_.issue(std::span<const Value>(pending_.data(), usable));
    issued_ = usable;
    if (!run_.ready() && run_.wake_on_completion(this)) {
      set_block_reason(BlockReason::kRpc);
      return StepResult::kBlocked;
    }
    collect();
    return StepResult::kReady;  // flush (and refill) next step
  }

  std::string span_args() const override {
    return JsonArgs()
        .add("batches", run_.batches())
        .add("elements", run_.elements())
        .add("bytes_to_device", run_.bytes_to_device())
        .add("bytes_from_device", run_.bytes_from_device())
        .str();
  }

 private:
  /// Takes the completed batch's results and drops its inputs, which stay
  /// at the front of pending_ while it is in flight.
  void collect() {
    outbox_ = run_.collect();
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<long>(issued_));
  }

  DeviceRun run_;
  std::vector<Value> pending_;
  size_t issued_ = 0;
  bool eof_ = false;
};

namespace {
/// Process-unique run ids for executor graphs; 0 means "never reached the
/// executor" and is skipped by the attribution engine.
std::atomic<uint64_t> g_next_gid{1};
}  // namespace

void LiquidRuntime::run_executor(RtGraph& g) {
  if (TraceRecorder* rec = TraceRecorder::current()) {
    g.trace_start_us = rec->now_us();
  }
  std::shared_ptr<Executor> ex = ensure_executor();
  g.executor = ex;
  g.gid = g_next_gid.fetch_add(1, std::memory_order_relaxed);
  size_t n_nodes = g.nodes.size();
  g.fifos.clear();
  for (size_t i = 0; i + 1 < n_nodes; ++i) {
    g.fifos.push_back(std::make_shared<ValueFifo>(config_.fifo_capacity));
  }
  g.tasks.clear();
  for (size_t ni = 0; ni < n_nodes; ++ni) {
    RtNode* node = &g.nodes[ni];
    std::shared_ptr<ValueFifo> in = ni > 0 ? g.fifos[ni - 1] : nullptr;
    std::shared_ptr<ValueFifo> out = ni + 1 < n_nodes ? g.fifos[ni] : nullptr;
    switch (node->kind) {
      case RtNode::Kind::kSource:
        g.tasks.push_back(
            std::make_unique<SourceTask>(*this, &g, node, std::move(out)));
        break;
      case RtNode::Kind::kSink:
        g.tasks.push_back(
            std::make_unique<SinkTask>(*this, &g, node, std::move(in)));
        break;
      case RtNode::Kind::kFilter:
        g.tasks.push_back(std::make_unique<FilterTask>(
            *this, &g, node, std::move(in), std::move(out)));
        break;
      case RtNode::Kind::kDevice:
        g.tasks.push_back(std::make_unique<DeviceTask>(
            *this, &g, node, static_cast<int>(ni), std::move(in),
            std::move(out)));
        break;
    }
    // Stamp identity so the executor's coalesced "exec" dispatch spans can
    // be bound back to this graph's node lane by the attribution engine.
    auto* task = static_cast<NodeTask*>(g.tasks.back().get());
    task->set_trace_info(task->span_name(), g.gid, static_cast<int>(ni));
  }
  g.live = g.tasks.size();
  // Readiness wiring: FIFO i sits between node i (producer) and node i+1
  // (consumer); its not-full edge wakes the producer, its not-empty edge
  // the consumer. Raw pointers are safe — the graph owns the tasks and
  // co-owns the executor, and destroys itself only after every task
  // retired (the completion latch).
  for (size_t i = 0; i < g.fifos.size(); ++i) {
    Executor* exp = ex.get();
    ExecTask* prod = g.tasks[i].get();
    ExecTask* cons = g.tasks[i + 1].get();
    g.fifos[i]->set_producer_waker([exp, prod] { exp->wake(prod); });
    g.fifos[i]->set_consumer_waker([exp, cons] { exp->wake(cons); });
  }
  for (auto& t : g.tasks) ex->submit(t.get());
}

// ---------------------------------------------------------------------------
// AccelHooks: data-parallel operator offload (§2.2)
// ---------------------------------------------------------------------------

bool LiquidRuntime::try_map(const std::string& task_id,
                            std::span<const Value> args, uint32_t array_mask,
                            Value* out) {
  if (config_.placement == Placement::kCpuOnly ||
      config_.placement == Placement::kFpgaOnly) {
    hot_->maps_interpreted->add();
    return false;
  }
  Artifact* a = program_.store.find(task_id, DeviceKind::kGpu);
  if (!a) {
    hot_->maps_interpreted->add();
    return false;
  }
  *out = static_cast<GpuKernelArtifact*>(a)->run_map(args, array_mask);
  hot_->maps_accelerated->add();
  return true;
}

bool LiquidRuntime::try_reduce(const std::string& task_id, const Value& array,
                               Value* out) {
  if (config_.placement == Placement::kCpuOnly ||
      config_.placement == Placement::kFpgaOnly) {
    hot_->reduces_interpreted->add();
    return false;
  }
  Artifact* a = program_.store.find(task_id, DeviceKind::kGpu);
  if (!a || array.as_array()->size() == 0) {
    hot_->reduces_interpreted->add();
    return false;
  }
  *out = static_cast<GpuKernelArtifact*>(a)->run_reduce(array);
  hot_->reduces_accelerated->add();
  return true;
}

}  // namespace lm::runtime
