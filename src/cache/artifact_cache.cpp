#include "cache/artifact_cache.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "obs/trace.h"
#include "util/byte_buffer.h"
#include "util/hash.h"
#include "util/output_path.h"

namespace fs = std::filesystem;

namespace lm::cache {

namespace {

constexpr uint32_t kEntryMagic = 0x41434D4C;  // "LMCA" little-endian

void trace_event(const char* what, uint64_t key, const std::string& backend,
                 uint64_t bytes) {
  if (auto* rec = obs::TraceRecorder::current()) {
    rec->instant("cache", what,
                 obs::JsonArgs()
                     .add("key", key_hex(key))
                     .add("backend", backend)
                     .add("bytes", bytes)
                     .str());
  }
}

/// `<path>.tmp.<pid>.<n>`, unique per writer: two threads or two caches of
/// one process never share a temp file, so one cannot truncate or remove
/// the file the other is about to publish.
std::string temp_path(const std::string& path) {
  static std::atomic<uint64_t> next{0};
  return path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
         std::to_string(next.fetch_add(1, std::memory_order_relaxed));
}

std::optional<std::vector<uint8_t>> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (in.bad()) return std::nullopt;
  return bytes;
}

}  // namespace

std::optional<CacheMode> parse_cache_mode(const std::string& s) {
  if (s == "off") return CacheMode::kOff;
  if (s == "ro") return CacheMode::kReadOnly;
  if (s == "rw") return CacheMode::kReadWrite;
  return std::nullopt;
}

const char* to_string(CacheMode m) {
  switch (m) {
    case CacheMode::kOff: return "off";
    case CacheMode::kReadOnly: return "ro";
    case CacheMode::kReadWrite: return "rw";
  }
  return "?";
}

uint64_t artifact_key(std::span<const uint8_t> canonical_bytes,
                      const std::string& backend) {
  util::Fnv1a h;
  h.mix(canonical_bytes).mix_byte(0);
  h.mix(backend).mix_byte(0);
  h.mix_byte(0);  // a retired compile-flags field, kept so keys stay stable
  h.mix(std::string(kToolchainVersion)).mix_byte(0);
  h.mix_u32(kCacheFormatVersion);
  return h.digest();
}

std::string key_hex(uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

std::string ArtifactCache::default_dir() {
  if (const char* env = std::getenv("LM_CACHE_DIR"); env && *env) {
    return env;
  }
  return util::resolve_output_path("lm-cache");
}

ArtifactCache::ArtifactCache(CacheConfig config)
    : mode_(config.mode),
      dir_(config.dir.empty() ? default_dir() : config.dir),
      max_bytes_(config.max_bytes),
      hits_(&metrics_.counter("cache.hits")),
      misses_(&metrics_.counter("cache.misses")),
      stores_(&metrics_.counter("cache.stores")),
      evictions_(&metrics_.counter("cache.evictions")),
      errors_(&metrics_.counter("cache.errors")) {
  if (mode_ == CacheMode::kOff) return;
  std::error_code ec;
  if (writable()) {
    fs::create_directories(objects_dir(), ec);
    if (ec) {
      // A cache that cannot persist must not break the compile: fall back
      // to read-only (loads against whatever exists still work).
      errors_->add();
      mode_ = CacheMode::kReadOnly;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  rescan_locked();
}

std::string ArtifactCache::objects_dir() const { return dir_ + "/objects"; }

std::string ArtifactCache::entry_path(uint64_t key) const {
  return objects_dir() + "/" + key_hex(key) + ".art";
}

uint64_t ArtifactCache::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

uint64_t ArtifactCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void ArtifactCache::rescan_locked() {
  entries_.clear();
  bytes_ = 0;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(objects_dir(), ec)) {
    const fs::path& p = de.path();
    if (p.extension() != ".art") continue;
    uint64_t key = 0;
    if (std::sscanf(p.stem().string().c_str(), "%16llx",
                    reinterpret_cast<unsigned long long*>(&key)) != 1) {
      continue;
    }
    std::error_code sec;
    uint64_t size = de.file_size(sec);
    if (sec) continue;
    entries_[key] = Entry{size, "?"};
    bytes_ += size;
  }
}

std::optional<std::vector<uint8_t>> ArtifactCache::load(
    uint64_t key, const std::string& backend) {
  if (!enabled()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path = entry_path(key);
  auto bytes = read_file(path);
  if (!bytes) {
    misses_->add();
    trace_event("cache-miss", key, backend, 0);
    return std::nullopt;
  }
  try {
    ByteReader r(*bytes);
    if (r.u32() != kEntryMagic) throw RuntimeError("bad magic");
    if (r.u32() != kCacheFormatVersion) throw RuntimeError("version skew");
    if (r.u64() != key) throw RuntimeError("key mismatch");
    if (r.str() != backend) throw RuntimeError("backend mismatch");
    uint32_t n = r.u32();
    uint64_t checksum = r.u64();
    if (n != r.remaining()) throw RuntimeError("size mismatch");
    std::vector<uint8_t> payload(n);
    r.raw(payload.data(), n);
    if (util::fnv1a(payload) != checksum) throw RuntimeError("checksum");
    hits_->add();
    entries_[key] = Entry{bytes->size(), backend};
    if (writable()) {
      // LRU touch: eviction orders by mtime.
      std::error_code ec;
      fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    }
    trace_event("cache-hit", key, backend, n);
    return payload;
  } catch (const std::exception&) {
    // Truncated / corrupted / version-skewed / mis-addressed entry:
    // a miss, never a crash and never wrong bytes.
    errors_->add();
    misses_->add();
    trace_event("cache-corrupt", key, backend, bytes->size());
    if (writable()) drop_entry_locked(key, path);
    return std::nullopt;
  }
}

bool ArtifactCache::store(uint64_t key, const std::string& backend,
                          std::span<const uint8_t> payload) {
  if (!writable()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  ByteWriter w;
  w.u32(kEntryMagic);
  w.u32(kCacheFormatVersion);
  w.u64(key);
  w.str(backend);
  w.u32(static_cast<uint32_t>(payload.size()));
  w.u64(util::fnv1a(payload));
  w.raw(payload.data(), payload.size());

  const std::string path = entry_path(key);
  const std::string tmp = temp_path(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      errors_->add();
      return false;
    }
    out.write(reinterpret_cast<const char*>(w.bytes().data()),
              static_cast<std::streamsize>(w.size()));
    out.flush();
    if (!out) {
      errors_->add();
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);  // atomic publish; losers overwrite identically
  if (ec) {
    errors_->add();
    fs::remove(tmp, ec);
    return false;
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) bytes_ -= std::min(bytes_, it->second.size);
  entries_[key] = Entry{w.size(), backend};
  bytes_ += w.size();
  stores_->add();
  trace_event("cache-store", key, backend, payload.size());
  if (bytes_ > max_bytes_) evict_locked();
  write_index_locked();
  return true;
}

void ArtifactCache::drop_entry_locked(uint64_t key, const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_ -= std::min(bytes_, it->second.size);
    entries_.erase(it);
  }
}

void ArtifactCache::evict_locked() {
  // Oldest-mtime-first until under the cap. Another process may have
  // grown the directory behind our tracked view, so order by the actual
  // filesystem state.
  struct Victim {
    uint64_t key;
    fs::file_time_type mtime;
    uint64_t size;
  };
  std::vector<Victim> victims;
  for (const auto& [key, e] : entries_) {
    std::error_code ec;
    auto mt = fs::last_write_time(entry_path(key), ec);
    if (ec) continue;
    victims.push_back({key, mt, e.size});
  }
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) { return a.mtime < b.mtime; });
  for (const auto& v : victims) {
    if (bytes_ <= max_bytes_) break;
    drop_entry_locked(v.key, entry_path(v.key));
    evictions_->add();
    trace_event("cache-evict", v.key, "", v.size);
  }
}

void ArtifactCache::write_index_locked() {
  // Best-effort human-readable listing; the .art files are authoritative.
  const std::string tmp = temp_path(dir_ + "/index.txt");
  std::ofstream out(tmp, std::ios::trunc);
  if (!out) return;
  for (const auto& [key, e] : entries_) {
    out << key_hex(key) << " " << e.backend << " " << e.size << "\n";
  }
  out.flush();
  if (!out) return;
  std::error_code ec;
  fs::rename(tmp, dir_ + "/index.txt", ec);
  if (ec) fs::remove(tmp, ec);
}

void ArtifactCache::collect_telemetry(
    std::vector<obs::GaugeSample>& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out.emplace_back("cache.bytes", static_cast<double>(bytes_));
  out.emplace_back("cache.entries", static_cast<double>(entries_.size()));
}

std::string ArtifactCache::summary() const {
  std::string s = "mode=" + std::string(to_string(mode_));
  s += " " + metrics_.summary(/*include_zeros=*/true);
  s += " bytes=" + std::to_string(total_bytes());
  return s;
}

}  // namespace lm::cache
