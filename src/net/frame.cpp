#include "net/frame.h"

#include "util/byte_buffer.h"

namespace lm::net {

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kHelloOk: return "hello-ok";
    case FrameType::kList: return "list";
    case FrameType::kListOk: return "list-ok";
    case FrameType::kProcess: return "process";
    case FrameType::kProcessOk: return "process-ok";
    case FrameType::kError: return "error";
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
    case FrameType::kArtifactGet: return "artifact-get";
    case FrameType::kArtifactOk: return "artifact-ok";
  }
  return "?";
}

size_t wire_size(const Frame& f) {
  size_t n = kFrameHeaderSize + f.payload.size();
  if (!f.aux.empty()) n += 4 + f.aux.size();
  return n;
}

std::vector<uint8_t> encode_frame(const Frame& f) {
  if (f.payload.size() > kMaxPayload) {
    throw TransportError("frame payload too large: " +
                         std::to_string(f.payload.size()) + " bytes");
  }
  if (f.aux.size() > kMaxAux) {
    throw TransportError("frame aux block too large: " +
                         std::to_string(f.aux.size()) + " bytes");
  }
  ByteWriter w;
  w.u32(kFrameMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<uint8_t>(f.type));
  w.u16(f.aux.empty() ? 0 : kFlagAuxTelemetry);
  w.u64(f.request_id);
  w.u64(f.trace_id);
  w.u32(static_cast<uint32_t>(f.payload.size()));
  w.raw(f.payload.data(), f.payload.size());
  if (!f.aux.empty()) {
    w.u32(static_cast<uint32_t>(f.aux.size()));
    w.raw(f.aux.data(), f.aux.size());
  }
  return w.take();
}

void write_frame(Socket& s, const Frame& f, Deadline deadline) {
  s.send_all(encode_frame(f), deadline);
}

namespace {

struct FrameHeader {
  uint32_t payload_len = 0;
  bool has_aux = false;
};

/// The one header decoder: validates magic, version, flags and the payload
/// length of the kFrameHeaderSize bytes at `h`, and fills `f`'s fields.
FrameHeader decode_header(const uint8_t* h, Frame& f) {
  ByteReader r(std::span<const uint8_t>(h, kFrameHeaderSize));
  if (r.u32() != kFrameMagic) {
    throw TransportError("bad frame magic (not an lmdev peer?)");
  }
  uint8_t version = r.u8();
  if (version != kProtocolVersion) {
    throw TransportError("protocol version mismatch: peer speaks v" +
                         std::to_string(version) + ", this build v" +
                         std::to_string(kProtocolVersion));
  }
  f.type = static_cast<FrameType>(r.u8());
  uint16_t flags = r.u16();
  if ((flags & ~kFlagAuxTelemetry) != 0) {
    throw TransportError("unknown frame flags");
  }
  f.request_id = r.u64();
  f.trace_id = r.u64();
  FrameHeader out;
  out.payload_len = r.u32();
  if (out.payload_len > kMaxPayload) {
    throw TransportError("frame payload too large: " +
                         std::to_string(out.payload_len) + " bytes");
  }
  out.has_aux = (flags & kFlagAuxTelemetry) != 0;
  return out;
}

/// Validates the 4-byte aux-block length at `p`.
uint32_t decode_aux_len(const uint8_t* p) {
  uint32_t n = ByteReader(std::span<const uint8_t>(p, 4)).u32();
  if (n > kMaxAux) {
    throw TransportError("frame aux block too large: " + std::to_string(n) +
                         " bytes");
  }
  return n;
}

}  // namespace

Frame read_frame(Socket& s, Deadline deadline) {
  uint8_t header[kFrameHeaderSize];
  s.recv_all(header, deadline);
  Frame f;
  FrameHeader h = decode_header(header, f);
  f.payload.resize(h.payload_len);
  s.recv_all(f.payload, deadline);
  if (h.has_aux) {
    uint8_t lenbuf[4];
    s.recv_all(lenbuf, deadline);
    f.aux.resize(decode_aux_len(lenbuf));
    s.recv_all(f.aux, deadline);
  }
  return f;
}

void FrameParser::feed(const uint8_t* data, size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

void FrameParser::reset() {
  buf_.clear();
  pos_ = 0;
}

std::optional<Frame> FrameParser::next() {
  size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderSize) return std::nullopt;
  const uint8_t* at = buf_.data() + pos_;
  Frame f;
  FrameHeader h = decode_header(at, f);
  // Lengths are validated before being waited on, so a corrupt prefix is
  // rejected here instead of stalling the parser on bytes that never come.
  size_t need = kFrameHeaderSize + h.payload_len;
  uint32_t aux_len = 0;
  if (h.has_aux) {
    if (avail < need + 4) return std::nullopt;
    aux_len = decode_aux_len(at + need);
    need += 4 + aux_len;
  }
  if (avail < need) return std::nullopt;
  const uint8_t* body = at + kFrameHeaderSize;
  f.payload.assign(body, body + h.payload_len);
  if (aux_len > 0) {
    const uint8_t* aux = body + h.payload_len + 4;
    f.aux.assign(aux, aux + aux_len);
  }
  pos_ += need;
  // Compact once the consumed prefix dominates, keeping the buffer from
  // growing without bound across a long-lived pipelined connection.
  if (pos_ > 4096 && pos_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return f;
}

}  // namespace lm::net
