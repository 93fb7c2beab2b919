#include "net/remote_artifact.h"

#include <cstdio>

#include "obs/trace.h"
#include "serde/batch.h"
#include "util/error.h"

namespace lm::net {

using bc::Value;

RemoteArtifact::RemoteArtifact(runtime::ArtifactManifest manifest,
                               std::shared_ptr<RemoteSession> session)
    : Artifact(std::move(manifest)), session_(std::move(session)) {
  LM_CHECK(session_ != nullptr);
  LM_CHECK_MSG(!manifest_.param_types.empty(),
               "remote artifact needs a parameter type for serialization");
}

std::vector<Value> RemoteArtifact::process(std::span<const Value> inputs) {
  std::unique_ptr<runtime::AsyncBatch> batch;
  wait_for_completion([&](std::function<void()> on_done) {
    batch = process_async(inputs, std::move(on_done));
  });
  return batch->take_results();
}

/// The pending half of RemoteArtifact::process_async. Captures the
/// issue-time trace context so the deferred "rpc:" span covers the full
/// issue → collect window even when a different worker collects it.
class RemoteAsyncBatch final : public runtime::AsyncBatch {
 public:
  RemoteAsyncBatch(RemoteArtifact* owner, std::shared_ptr<PendingRpc> rpc,
                   size_t elements, size_t wire_bytes, obs::TraceRecorder* rec,
                   double t0_us)
      : owner_(owner),
        rpc_(std::move(rpc)),
        elements_(elements),
        wire_bytes_(wire_bytes),
        rec_(rec),
        t0_us_(t0_us) {}

  std::vector<Value> take_results() override {
    return owner_->resolve_async(*this);
  }

 private:
  friend class RemoteArtifact;
  RemoteArtifact* owner_;
  std::shared_ptr<PendingRpc> rpc_;
  size_t elements_;
  size_t wire_bytes_;
  obs::TraceRecorder* rec_;
  double t0_us_ = 0;
};

std::unique_ptr<runtime::AsyncBatch> RemoteArtifact::process_async(
    std::span<const Value> inputs, std::function<void()> on_done) {
  size_t k = static_cast<size_t>(manifest_.arity);
  LM_CHECK(inputs.size() % k == 0);
  ++transfer_.batches;
  transfer_.elements_in += inputs.size();
  auto wire =
      serde::pack_batch(inputs, manifest_.param_types[0], serde::wire_pool());
  const size_t wire_bytes = wire.size();
  transfer_.bytes_to_device += wire_bytes;
  // Stamp the rpc span's start *before* submitting: the poll thread may
  // write the request (starting the wire exchange whose window the aligned
  // server spans must nest inside) the instant the op is queued.
  obs::TraceRecorder* rec = obs::TraceRecorder::current();
  double t0_us = rec ? rec->to_us(std::chrono::steady_clock::now()) : 0;
  auto rpc = session_->process_async(manifest_.task_id, manifest_.device,
                                     wire, std::move(on_done));
  serde::wire_pool().release(std::move(wire));
  return std::make_unique<RemoteAsyncBatch>(this, std::move(rpc), inputs.size(),
                                            wire_bytes, rec, t0_us);
}

std::vector<Value> RemoteArtifact::resolve_async(RemoteAsyncBatch& b) {
  auto emit_span = [&](const std::vector<uint8_t>* reply) {
    if (!b.rec_) return;
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(b.rec_->trace_id()));
    obs::JsonArgs args;
    args.add("endpoint", session_->endpoint()).add("trace_id", buf);
    if (reply) {
      args.add("elements", static_cast<uint64_t>(b.elements_))
          .add("bytes_out", static_cast<uint64_t>(b.wire_bytes_))
          .add("bytes_in", static_cast<uint64_t>(reply->size()));
    }
    double now_us = b.rec_->to_us(std::chrono::steady_clock::now());
    b.rec_->complete("net", "rpc:" + manifest_.task_id, b.t0_us_,
                     now_us - b.t0_us_, args.str());
  };

  RemoteSession::ExchangeInfo info;
  std::vector<uint8_t> reply;
  try {
    reply = session_->take(*b.rpc_, &info);
  } catch (...) {
    // A failed exchange still leaves an attributable span (the crash
    // casualty keeps its endpoint and trace id; only the byte counts are
    // success-path data).
    emit_span(nullptr);
    throw;
  }
  transfer_.bytes_from_device += reply.size();
  if (info.server_execute_us > 0) {
    server_exec_.record_ns(
        static_cast<uint64_t>(info.server_execute_us * 1e3));
  }
  auto out = serde::unpack_batch(reply, manifest_.return_type);
  transfer_.elements_out += out.size();
  emit_span(&reply);
  return out;
}

}  // namespace lm::net
