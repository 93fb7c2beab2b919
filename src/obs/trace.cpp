#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/error.h"

namespace lm::obs {

std::atomic<TraceRecorder*> TraceRecorder::g_current{nullptr};

namespace {

std::atomic<uint64_t> g_next_recorder_id{1};

/// splitmix64 finalizer — turns (recorder id, clock reading) into a trace
/// id that is unique per process *and* almost surely unique across the
/// client/server processes that exchange it (zero is reserved for
/// "untraced" and never produced).
uint64_t mix_trace_id(uint64_t seed) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z ? z : 1;
}

/// Per-thread cache of (recorder id → buffer). A thread normally sees one
/// recorder over its lifetime, so the list stays length 0 or 1; ids are
/// never reused, so a stale entry can never alias a new recorder.
struct TlsEntry {
  uint64_t recorder_id;
  void* buffer;
};
thread_local std::vector<TlsEntry> t_buffers;

/// Formats a double without trailing noise ("12.5", "3", "0.001").
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[32];
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  out += buf;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonArgs::key(const char* k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += k;
  body_ += "\":";
}

JsonArgs& JsonArgs::add(const char* k, const std::string& v) {
  key(k);
  body_ += '"';
  body_ += json_escape(v);
  body_ += '"';
  return *this;
}

JsonArgs& JsonArgs::add(const char* k, const char* v) {
  return add(k, std::string(v));
}

JsonArgs& JsonArgs::add(const char* k, uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonArgs& JsonArgs::add(const char* k, int v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonArgs& JsonArgs::add(const char* k, double v) {
  key(k);
  append_number(body_, v);
  return *this;
}

JsonArgs& JsonArgs::add(const char* k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonArgs& JsonArgs::add_raw(const char* k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TraceRecorder::TraceRecorder(size_t max_events_per_thread)
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      trace_id_(mix_trace_id(
          id_ ^ static_cast<uint64_t>(
                    std::chrono::steady_clock::now().time_since_epoch()
                        .count()))),
      t0_(std::chrono::steady_clock::now()),
      max_events_per_thread_(max_events_per_thread ? max_events_per_thread
                                                   : 1) {}

TraceRecorder& TraceRecorder::flight() {
  // Leaked on purpose: task threads may record during process teardown.
  static TraceRecorder* g = new TraceRecorder(256);
  return *g;
}

TraceRecorder::~TraceRecorder() {
  TraceRecorder* self = this;
  g_current.compare_exchange_strong(self, nullptr,
                                    std::memory_order_acq_rel);
}

void TraceRecorder::install() {
  TraceRecorder* expected = nullptr;
  bool ok = g_current.compare_exchange_strong(expected, this,
                                              std::memory_order_acq_rel);
  LM_CHECK_MSG(ok || expected == this,
               "another TraceRecorder is already installed");
}

void TraceRecorder::uninstall() {
  TraceRecorder* self = this;
  g_current.compare_exchange_strong(self, nullptr,
                                    std::memory_order_acq_rel);
}

double TraceRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

/// The flight recorder outlives every thread, so a thread hands its row
/// back when it exits, and a process that keeps starting short-lived
/// threads holds a bounded number of rows. Any other recorder may be gone
/// by then, so its rows are left alone.
struct TraceRecorder::FlightRow {
  Buffer* row = nullptr;

  ~FlightRow() {
    if (!row) return;
    {
      std::lock_guard<std::mutex> bl(row->mu);
      row->label.clear();
    }
    TraceRecorder& fr = flight();
    std::lock_guard<std::mutex> lock(fr.mu_);
    fr.free_rows_.push_back(row);
  }
};

thread_local TraceRecorder::FlightRow TraceRecorder::t_flight_row_;

TraceRecorder::Buffer& TraceRecorder::local_buffer() {
  for (const TlsEntry& e : t_buffers) {
    if (e.recorder_id == id_) return *static_cast<Buffer*>(e.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  Buffer* raw;
  if (!free_rows_.empty()) {
    raw = free_rows_.back();
    free_rows_.pop_back();
  } else {
    auto buf = std::make_unique<Buffer>();
    buf->tid = static_cast<uint32_t>(buffers_.size() + 1);
    raw = buf.get();
    buffers_.push_back(std::move(buf));
  }
  t_buffers.push_back({id_, raw});
  if (this == &flight()) t_flight_row_.row = raw;
  return *raw;
}

void TraceRecorder::append_to(Buffer& b, TraceEvent e) {
  e.tid = b.tid;
  std::lock_guard<std::mutex> lock(b.mu);  // uncontended except vs export
  if (b.events.size() < max_events_per_thread_) {
    b.events.push_back(std::move(e));
    return;
  }
  // Full buffer: the newest event replaces the oldest, never silently —
  // the count rides along in the export metadata and the runtime's
  // trace.dropped_events counter.
  b.events[b.next] = std::move(e);
  if (++b.next == b.events.size()) b.next = 0;
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

uint32_t TraceRecorder::lane(const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Buffer* b : lanes_) {
    if (b->label == label) return b->tid;
  }
  auto buf = std::make_unique<Buffer>();
  buf->tid = static_cast<uint32_t>(buffers_.size() + 1);
  buf->label = label;
  Buffer* raw = buf.get();
  buffers_.push_back(std::move(buf));
  lanes_.push_back(raw);
  return raw->tid;
}

uint32_t TraceRecorder::thread_row() { return local_buffer().tid; }

void TraceRecorder::complete_on(uint32_t row, const char* category,
                                std::string name, double ts_us, double dur_us,
                                std::string args) {
  Buffer* buf = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    LM_CHECK_MSG(row >= 1 && row <= buffers_.size(),
                 "complete_on: unknown row");
    buf = buffers_[row - 1].get();
  }
  append_to(*buf, {.phase = TraceEvent::Phase::kComplete,
                   .category = category,
                   .name = std::move(name),
                   .args = std::move(args),
                   .ts_us = ts_us,
                   .dur_us = dur_us});
}

void TraceRecorder::set_thread_name(std::string name) {
  Buffer& b = local_buffer();
  std::lock_guard<std::mutex> lock(b.mu);
  b.label = std::move(name);
}

void TraceRecorder::complete(const char* category, std::string name,
                             double ts_us, double dur_us, std::string args) {
  append_to(local_buffer(), {.phase = TraceEvent::Phase::kComplete,
                             .category = category,
                             .name = std::move(name),
                             .args = std::move(args),
                             .ts_us = ts_us,
                             .dur_us = dur_us});
}

void TraceRecorder::instant(const char* category, std::string name,
                            std::string args) {
  append_to(local_buffer(), {.phase = TraceEvent::Phase::kInstant,
                             .category = category,
                             .name = std::move(name),
                             .args = std::move(args),
                             .ts_us = now_us()});
}

void TraceRecorder::counter(const char* category, std::string name,
                            double value) {
  append_to(local_buffer(), {.phase = TraceEvent::Phase::kCounter,
                             .category = category,
                             .name = std::move(name),
                             .args = {},
                             .ts_us = now_us(),
                             .value = value});
}

size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> bl(b->mu);
    n += b->events.size();
  }
  return n;
}

size_t TraceRecorder::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> bl(b->mu);
    if (!b->events.empty()) ++n;
  }
  return n;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) {
      std::lock_guard<std::mutex> bl(b->mu);
      // Oldest first, so equal timestamps keep their recording order.
      const auto oldest = b->events.begin() + static_cast<long>(b->next);
      out.insert(out.end(), oldest, b->events.end());
      out.insert(out.end(), b->events.begin(), oldest);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

std::string TraceRecorder::chrome_trace_json(const std::string& reason) const {
  std::vector<TraceEvent> evs = events();
  std::vector<std::pair<uint32_t, std::string>> lane_names;
  {
    // Every labeled buffer gets thread_name metadata: imported lanes AND
    // threads that called set_thread_name (executor workers, poll loop).
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) {
      std::lock_guard<std::mutex> bl(b->mu);
      if (!b->label.empty()) lane_names.emplace_back(b->tid, b->label);
    }
  }
  std::string out;
  out.reserve(evs.size() * 96 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  // Lanes render as named rows: imported remote spans get e.g.
  // "remote 127.0.0.1:9000" instead of a bare synthetic tid.
  for (const auto& [tid, label] : lane_names) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
    out += ",\"args\":{\"name\":\"";
    out += json_escape(label);
    out += "\"}}";
  }
  for (const TraceEvent& e : evs) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += json_escape(e.name);
    out += "\",\"cat\":\"";
    out += json_escape(e.category);
    out += "\",\"ph\":\"";
    switch (e.phase) {
      case TraceEvent::Phase::kComplete: out += 'X'; break;
      case TraceEvent::Phase::kInstant: out += 'i'; break;
      case TraceEvent::Phase::kCounter: out += 'C'; break;
    }
    out += "\",\"ts\":";
    append_number(out, e.ts_us);
    if (e.phase == TraceEvent::Phase::kComplete) {
      out += ",\"dur\":";
      append_number(out, e.dur_us);
    }
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(e.tid);
    if (e.phase == TraceEvent::Phase::kInstant) {
      out += ",\"s\":\"t\"";  // thread-scoped instant
    }
    if (e.phase == TraceEvent::Phase::kCounter) {
      out += ",\"args\":{\"value\":";
      append_number(out, e.value);
      out += '}';
    } else if (!e.args.empty()) {
      out += ",\"args\":{";
      out += e.args;
      out += '}';
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\",\"metadata\":{\"traceId\":\"";
  char idbuf[24];
  std::snprintf(idbuf, sizeof(idbuf), "%016llx",
                static_cast<unsigned long long>(trace_id_));
  out += idbuf;
  out += "\",";
  const uint64_t dropped = dropped_events();
  JsonArgs meta;
  meta.add("droppedEvents", dropped)
      .add("maxEventsPerThread", static_cast<uint64_t>(max_events_per_thread_))
      .add("totalRecorded", static_cast<uint64_t>(evs.size()) + dropped);
  if (!reason.empty()) meta.add("reason", reason);
  out += meta.str();
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// TraceSpan
// ---------------------------------------------------------------------------

void TraceSpan::begin(TraceRecorder* rec, const char* category,
                      std::string name) {
  if (!rec) return;
  rec_ = rec;
  category_ = category;
  name_ = std::move(name);
  t0_us_ = rec->now_us();
}

void TraceSpan::end() {
  if (!rec_) return;
  double t1 = rec_->now_us();
  rec_->complete(category_, std::move(name_), t0_us_, t1 - t0_us_,
                 std::move(args_));
  rec_ = nullptr;
}

// ---------------------------------------------------------------------------
// Always-on facts
// ---------------------------------------------------------------------------

void record_instant(TraceRecorder* trace, const char* category,
                    std::string name, std::string args) {
  if (trace) trace->instant(category, name, args);
  TraceRecorder::flight().instant(category, std::move(name), std::move(args));
}

void record_complete(TraceRecorder* trace, const char* category,
                     std::string name,
                     std::chrono::steady_clock::time_point start,
                     double dur_us, std::string args) {
  if (trace) trace->complete(category, name, trace->to_us(start), dur_us, args);
  TraceRecorder& f = TraceRecorder::flight();
  f.complete(category, std::move(name), f.to_us(start), dur_us, std::move(args));
}

}  // namespace lm::obs
