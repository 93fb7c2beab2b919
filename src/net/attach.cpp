#include "net/attach.h"

#include <memory>

#include "net/client.h"
#include "net/protocol.h"
#include "net/remote_artifact.h"
#include "util/error.h"

namespace lm::net {

AttachResult attach_remote_devices(runtime::LiquidRuntime& rt,
                                   const runtime::CompiledProgram& program) {
  AttachResult res;
  const runtime::RuntimeConfig& cfg = rt.config();
  const uint64_t fp = program_fingerprint(program.store);
  for (const std::string& spec : cfg.remote_endpoints) {
    try {
      std::string host;
      uint16_t port = 0;
      parse_endpoint(spec, &host, &port);
      SessionOptions opts;
      opts.request_timeout_ms = cfg.remote_timeout_ms;
      opts.max_retries = cfg.remote_retries;
      auto session = std::make_shared<RemoteSession>(host, port, fp, opts,
                                                     &rt.metrics());
      size_t added = 0;
      for (const ArtifactListing& l : session->list()) {
        // The local program supplies the serialization schema. Prefer the
        // same-device manifest; fall back to the CPU one (always present
        // for plain tasks — a client compiled without a device backend can
        // still use that device remotely). A fused segment with no local
        // artifact at all has no type source and is skipped.
        const runtime::Artifact* local = program.store.find(l.task_id,
                                                            l.device);
        if (!local) {
          local = program.store.find(l.task_id, runtime::DeviceKind::kCpu);
        }
        if (!local) continue;
        runtime::ArtifactManifest m;
        m.task_id = l.task_id;
        m.device = l.device;
        m.param_types = local->manifest().param_types;
        m.return_type = local->manifest().return_type;
        m.arity = l.arity;
        rt.add_remote_artifact(
            std::make_unique<RemoteArtifact>(std::move(m), session));
        ++added;
      }
      if (added > 0) session->start_heartbeat();
      res.artifacts += added;
      res.endpoints_ok.push_back(session->endpoint());
      res.sessions.push_back(std::move(session));
    } catch (const RuntimeError& e) {
      res.errors.push_back(spec + ": " + e.what());
    }
  }
  return res;
}

}  // namespace lm::net
