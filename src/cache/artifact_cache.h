// Persistent content-addressed artifact store (warm-start compiles).
//
// The paper's toolflow treats backend compilation — bytecode generation,
// kernel construction + the interval pass, behavioural synthesis — as
// something that happens on every run. This store makes compiled artifacts
// durable across processes: entries are addressed by a content key (the
// canonical IR bytes of the task closure + backend id + compile flags +
// toolchain version, hashed with the same FNV-1a the LMRP handshake pins),
// so a warm start serves every backend artifact from disk and skips the
// compile entirely. Correctness leans on the keying discipline in
// serialize.h: the key is a function of everything the backend consumes,
// so a hit can only ever return bytes the compiler would have produced.
//
// On-disk layout (under one cache directory):
//
//   objects/<16-hex-key>.art   one artifact per file, self-validating:
//       u32 magic "LMCA" | u32 format version | u64 key | str backend |
//       u32 payload size | u64 FNV-1a payload checksum | payload
//   index.txt                  best-effort human-readable listing
//
// Durability rules:
//   * writes go to a tmp file then POSIX rename() — readers never observe
//     a half-written entry, and concurrent writers of the same key are
//     idempotent (both rename bit-identical bytes into place);
//   * every load re-validates magic/version/key/backend/checksum — a
//     truncated, corrupted or version-skewed entry is a *miss* (counted in
//     cache.errors, best-effort unlinked in rw mode), never a crash and
//     never wrong bytes;
//   * an LRU size cap: hits bump the file mtime, stores evict
//     oldest-mtime entries once the directory exceeds max_bytes.
//
// The store is process-thread-safe (one mutex; no callback reentrancy) and
// multi-process-safe by construction (atomic rename + revalidation).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace lm::cache {

/// Bumped whenever any persisted layout changes (entry header, payload
/// codecs, canonical-bytes recipe). Old entries then miss by version check.
inline constexpr uint32_t kCacheFormatVersion = 3;

/// Stands in for a real toolchain's compiler-version component of the key:
/// mixed into every artifact key so entries cannot survive a codegen
/// change. Bump alongside any backend lowering change that alters emitted
/// artifacts without changing their serialized *format*.
inline constexpr const char* kToolchainVersion = "lm-toolchain-3";

/// Backend id strings used as the `backend` key/header component.
inline constexpr const char* kBackendBytecode = "bytecode";
inline constexpr const char* kBackendGpu = "gpu";
inline constexpr const char* kBackendFpga = "fpga";

enum class CacheMode : uint8_t {
  kOff,        // never touch the disk
  kReadOnly,   // serve hits, never store / bump / evict / unlink
  kReadWrite,  // full behavior
};

struct CacheConfig {
  CacheMode mode = CacheMode::kOff;
  /// Cache directory. Empty resolves to $LM_CACHE_DIR, else "lm-cache"
  /// under the standard output root (util::resolve_output_path).
  std::string dir;
  uint64_t max_bytes = 256ull << 20;  // LRU cap on sum of entry sizes
};

/// Parses "off" / "ro" / "rw" (the --cache= flag grammar). Returns
/// std::nullopt for anything else.
std::optional<CacheMode> parse_cache_mode(const std::string& s);
const char* to_string(CacheMode m);

/// The content key: FNV-1a over (canonical IR bytes, backend id, an empty
/// field, toolchain version, cache format version), with separators so
/// field boundaries cannot alias. The empty field once held compile flags;
/// none is left, and it stays so that every key is unchanged.
uint64_t artifact_key(std::span<const uint8_t> canonical_bytes,
                      const std::string& backend);

/// `key` rendered as the 16-hex-digit entry stem.
std::string key_hex(uint64_t key);

class ArtifactCache {
 public:
  explicit ArtifactCache(CacheConfig config);

  /// The directory an empty CacheConfig::dir resolves to.
  static std::string default_dir();

  bool enabled() const { return mode_ != CacheMode::kOff; }
  bool writable() const { return mode_ == CacheMode::kReadWrite; }
  CacheMode mode() const { return mode_; }
  const std::string& dir() const { return dir_; }

  /// Looks up `key`, expecting an entry produced for `backend`. Returns the
  /// payload on a validated hit; std::nullopt on miss or on any validation
  /// failure (which also counts cache.errors and, in rw mode, unlinks the
  /// bad entry).
  std::optional<std::vector<uint8_t>> load(uint64_t key,
                                           const std::string& backend);

  /// Persists a payload under `key` (rw mode only; returns false
  /// otherwise or on I/O failure). May evict older entries to honor
  /// max_bytes.
  bool store(uint64_t key, const std::string& backend,
             std::span<const uint8_t> payload);

  /// Sum of entry sizes currently on disk (tracked, not rescanned).
  uint64_t total_bytes() const;
  uint64_t entry_count() const;

  /// hits / misses / stores / evictions / errors counters ("cache." names).
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Live gauges (cache.bytes, cache.entries) for TelemetryHub::add_collector.
  void collect_telemetry(std::vector<obs::GaugeSample>& out) const;

  /// One-line "hits=… misses=…" summary for tool footers.
  std::string summary() const;

 private:
  std::string objects_dir() const;
  std::string entry_path(uint64_t key) const;
  void rescan_locked();
  void evict_locked();
  void write_index_locked();
  void drop_entry_locked(uint64_t key, const std::string& path);

  CacheMode mode_;
  std::string dir_;
  uint64_t max_bytes_;

  mutable std::mutex mu_;
  // Tracked view of objects/ (rebuilt at construction, maintained by
  // store/evict): entry sizes keyed by content key.
  struct Entry {
    uint64_t size = 0;
    std::string backend;  // "?" until a load/store reveals it
  };
  std::map<uint64_t, Entry> entries_;
  uint64_t bytes_ = 0;

  obs::MetricsRegistry metrics_;
  obs::MetricsRegistry::Counter* hits_;
  obs::MetricsRegistry::Counter* misses_;
  obs::MetricsRegistry::Counter* stores_;
  obs::MetricsRegistry::Counter* evictions_;
  obs::MetricsRegistry::Counter* errors_;
};

}  // namespace lm::cache
