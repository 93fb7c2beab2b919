// Runtime tracing (§7: "runtime introspection").
//
// A lock-cheap per-thread event recorder. Threads append events to private
// buffers (one uncontended mutex per buffer keeps export TSan-clean); the
// recorder merges them on export into Chrome `chrome://tracing` /
// Perfetto-compatible JSON.
//
// One recorder type serves both uses: an installed recorder is the trace,
// and TraceRecorder::flight() is the always-on black box. Both keep each
// thread's newest max_events_per_thread() events and count every
// overwritten one in dropped_events().
//
// Cost model: when no recorder is installed, instrumentation must be a
// single relaxed atomic load and no allocation. Call sites therefore guard
// on TraceRecorder::current() before building event names:
//
//   if (auto* rec = obs::TraceRecorder::current()) {
//     obs::TraceSpan span(rec, "runtime", "task:" + id);
//     ...
//   }
//
// or use the inert-by-default TraceSpan with static-string names:
//
//   obs::TraceSpan span("gpu", "launch");   // no-op when nothing installed
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace lm::obs {

/// One recorded event. `category` must point at static storage (string
/// literals at the instrumentation points).
struct TraceEvent {
  enum class Phase : uint8_t {
    kComplete,  // span: ts + dur           (Chrome "ph":"X")
    kInstant,   // point event              (Chrome "ph":"i")
    kCounter,   // sampled counter value    (Chrome "ph":"C")
  };
  Phase phase = Phase::kInstant;
  const char* category = "";
  std::string name;
  /// Pre-rendered JSON object *body* (no braces), e.g. "\"n\":3" — empty
  /// for no args. Rendered under "args" on export.
  std::string args;
  double ts_us = 0;   // microseconds since recorder creation
  double dur_us = 0;  // kComplete only
  double value = 0;   // kCounter only
  uint32_t tid = 0;   // recorder-assigned, dense from 1
};

/// Escapes a string for embedding inside a JSON string literal.
std::string json_escape(const std::string& s);

/// Tiny builder for TraceEvent::args bodies:
///   JsonArgs().add("task", id).add("n", 42).str() → "\"task\":\"P.a\",\"n\":42"
class JsonArgs {
 public:
  JsonArgs& add(const char* key, const std::string& value);
  JsonArgs& add(const char* key, const char* value);
  JsonArgs& add(const char* key, uint64_t value);
  JsonArgs& add(const char* key, int value);
  JsonArgs& add(const char* key, double value);
  JsonArgs& add(const char* key, bool value);
  /// Adds a pre-rendered JSON value (array/object) verbatim.
  JsonArgs& add_raw(const char* key, const std::string& json);
  std::string str() && { return std::move(body_); }
  const std::string& str() const& { return body_; }

 private:
  void key(const char* k);
  std::string body_;
};

class TraceRecorder {
 public:
  /// Default per-thread event cap. Beyond it a thread's oldest events are
  /// overwritten (and counted — see dropped_events()), never reallocated
  /// without bound: a forgotten recorder on a long run must not eat the
  /// heap.
  static constexpr size_t kDefaultMaxEventsPerThread = 1u << 18;

  explicit TraceRecorder(
      size_t max_events_per_thread = kDefaultMaxEventsPerThread);
  ~TraceRecorder();  // uninstalls itself if still installed

  /// The always-on black box: the process-wide recorder of 256 events per
  /// thread. Never installed, created on first use and never destroyed
  /// (threads may record during teardown).
  static TraceRecorder& flight();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Makes this recorder the process-wide sink. Only one recorder may be
  /// installed at a time (LM_CHECKed).
  void install();
  void uninstall();

  /// The installed recorder, or nullptr when tracing is off. One relaxed
  /// atomic load — the fast-path guard for every instrumentation point.
  static TraceRecorder* current() {
    return g_current.load(std::memory_order_acquire);
  }

  /// Microseconds since this recorder was created.
  double now_us() const;
  /// Converts an absolute steady_clock reading into this recorder's
  /// timebase (microseconds since creation). Lets callers timestamp with
  /// the raw clock and translate later — e.g. the remote client records
  /// send/receive instants before it knows whether the reply carries spans.
  double to_us(std::chrono::steady_clock::time_point tp) const {
    return std::chrono::duration<double, std::micro>(tp - t0_).count();
  }

  /// Process-unique 64-bit id for this recorder's trace. Propagated to
  /// remote device servers in LMRP frames so server-side spans can be
  /// matched back to the client trace that caused them. Never zero (zero
  /// on the wire means "untraced").
  uint64_t trace_id() const { return trace_id_; }

  /// Reserves a named *lane*: an event row not owned by any thread, used
  /// for spans imported from another process (remote device servers).
  /// Returns the lane's tid; idempotent per label. The label is emitted as
  /// Chrome `thread_name` metadata so the unified trace shows e.g.
  /// "remote 127.0.0.1:9000" as its own row under the client's pid.
  uint32_t lane(const std::string& label);
  /// The calling thread's row (its tid), created on first use.
  uint32_t thread_row();
  /// Appends a kComplete event to a row — a lane, or a thread's own row —
  /// from any thread. The executor uses it to close a task's dispatch span
  /// on the row of the thread that ran it.
  void complete_on(uint32_t row, const char* category, std::string name,
                   double ts_us, double dur_us, std::string args = {});

  /// Labels the *calling thread's* buffer so its row renders with a name
  /// ("worker-3", "poll-loop") instead of a bare tid. Idempotent; safe to
  /// call repeatedly (workers re-check per dispatch because recorders are
  /// installed after the pool spins up).
  void set_thread_name(std::string name);

  // -- event emission (thread-safe; appends to the calling thread's buffer)
  void complete(const char* category, std::string name, double ts_us,
                double dur_us, std::string args = {});
  void instant(const char* category, std::string name, std::string args = {});
  void counter(const char* category, std::string name, double value);

  // -- inspection / export
  size_t event_count() const;
  /// Merged snapshot of all thread buffers, sorted by timestamp.
  std::vector<TraceEvent> events() const;
  /// The complete Chrome-trace document: {"traceEvents":[...],...}. Its
  /// metadata carries the trace id, the drop count, the per-thread cap and
  /// `totalRecorded` (held + dropped); a non-empty `reason` lands there too,
  /// so a flight dump says why it exists.
  std::string chrome_trace_json(const std::string& reason = {}) const;
  /// Number of distinct threads that recorded at least one event.
  size_t thread_count() const;

  /// Events overwritten because a per-thread buffer was at its cap.
  /// Surfaced in the export metadata, the runtime's `trace.dropped_events`
  /// counter and the performance report — a silently truncated trace reads
  /// as "nothing else happened", which is worse than an honest drop count.
  uint64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  size_t max_events_per_thread() const { return max_events_per_thread_; }

 private:
  struct Buffer {
    uint32_t tid = 0;
    std::string label;      // non-empty: a lane, not a thread buffer
    mutable std::mutex mu;  // uncontended: one writer (the owning thread)
    /// Grows to the cap, then is a ring whose oldest event is at `next`.
    std::vector<TraceEvent> events;
    size_t next = 0;
  };

  /// The calling thread's flight-recorder row, handed back to free_rows_
  /// when the thread exits (trace.cpp).
  struct FlightRow;
  static thread_local FlightRow t_flight_row_;

  Buffer& local_buffer();
  void append_to(Buffer& b, TraceEvent e);

  static std::atomic<TraceRecorder*> g_current;

  const uint64_t id_;  // process-unique, never reused (TLS cache key)
  const uint64_t trace_id_;
  const std::chrono::steady_clock::time_point t0_;
  const size_t max_events_per_thread_;
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;  // guards buffers_ vector growth + lane lookup
  std::vector<std::unique_ptr<Buffer>> buffers_;  // buffers_[tid - 1]
  std::vector<Buffer*> lanes_;  // subset of buffers_ with a label
  /// Rows of exited threads, each taken by the next thread that records
  /// (the flight recorder's only: see FlightRow).
  std::vector<Buffer*> free_rows_;
};

/// Records one always-on fact — a placement decision, a device drain, an
/// SLO violation — into the flight recorder and, when `trace` is non-null,
/// into that trace as well. The event is built once; each recorder stamps
/// it on its own clock.
void record_instant(TraceRecorder* trace, const char* category,
                    std::string name, std::string args = {});
void record_complete(TraceRecorder* trace, const char* category,
                     std::string name,
                     std::chrono::steady_clock::time_point start,
                     double dur_us, std::string args = {});

/// RAII span. Inert when default-constructed or when no recorder is
/// installed; records a kComplete event on destruction otherwise.
class TraceSpan {
 public:
  /// Inert span; attach with begin().
  TraceSpan() = default;
  /// Static-name convenience: guards internally, allocates nothing when
  /// tracing is off (both arguments must be string literals).
  TraceSpan(const char* category, const char* name) {
    if (TraceRecorder* rec = TraceRecorder::current()) {
      begin(rec, category, name);
    }
  }
  /// Call-site-guarded form for dynamic names.
  TraceSpan(TraceRecorder* rec, const char* category, std::string name) {
    begin(rec, category, std::move(name));
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void begin(TraceRecorder* rec, const char* category, std::string name);
  /// Attaches a JSON args body to the event emitted at end().
  void set_args(std::string args_body) { args_ = std::move(args_body); }
  /// Emits the span now (idempotent; also called by the destructor).
  void end();
  ~TraceSpan() { end(); }

  bool active() const { return rec_ != nullptr; }

 private:
  TraceRecorder* rec_ = nullptr;
  const char* category_ = "";
  std::string name_;
  std::string args_;
  double t0_us_ = 0;
};

}  // namespace lm::obs
