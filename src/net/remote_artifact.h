// RemoteArtifact: a device artifact whose batches cross a socket.
//
// The proxy satisfies the exact Artifact contract the runtime substitutes
// against — consume n*arity stream elements, return n outputs — so a GPU
// or FPGA artifact served by a remote `lmdev` is a drop-in substitution
// candidate. The wire format is the same serde batch encoding the
// in-process native boundary uses (Fig. 3's byte stream, now over TCP),
// which is what makes remote results bit-identical to local ones.
#pragma once

#include <memory>

#include "net/client.h"
#include "obs/histogram.h"
#include "runtime/artifact.h"

namespace lm::net {

class RemoteAsyncBatch;

class RemoteArtifact final : public runtime::Artifact {
 public:
  /// `manifest.device` is the *remote* device kind; param/return types are
  /// copied from a local manifest for the same task (the serialization
  /// schema — both ends agree on it via the hello fingerprint).
  RemoteArtifact(runtime::ArtifactManifest manifest,
                 std::shared_ptr<RemoteSession> session);

  /// Blocking: issues the batch, waits for its completion, takes it.
  std::vector<bc::Value> process(std::span<const bc::Value> inputs) override;

  /// The batch is packed here (on the issuing thread) and handed to the
  /// session's poll loop; decoding and telemetry accounting run in
  /// take_results() on whichever thread collects the batch.
  std::unique_ptr<runtime::AsyncBatch> process_async(
      std::span<const bc::Value> inputs,
      std::function<void()> on_done) override;

  bool is_remote() const override { return true; }
  std::string location() const override { return session_->endpoint(); }
  std::string cost_label() const override {
    return std::string(runtime::to_string(manifest_.device)) + "@" +
           session_->endpoint();
  }

  RemoteSession& session() { return *session_; }

  /// Device time on the *server* (the reply telemetry's execute span),
  /// merged into the client PerfReport via LatencyHistogram::merge().
  const obs::LatencyHistogram* server_histogram() const override {
    return server_exec_.count() ? &server_exec_ : nullptr;
  }

 private:
  friend class RemoteAsyncBatch;
  /// take_results() body: resolves the exchange, records transfer and
  /// server-time stats, unpacks the reply, emits the deferred rpc span.
  std::vector<bc::Value> resolve_async(RemoteAsyncBatch& batch);

  std::shared_ptr<RemoteSession> session_;
  obs::LatencyHistogram server_exec_;
};

}  // namespace lm::net
