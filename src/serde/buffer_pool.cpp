#include "serde/buffer_pool.h"

#include <bit>
#include <utility>

namespace lm::serde {

namespace {

/// The size class of a buffer of `capacity`: it holds at least 2^class.
size_t class_of(size_t capacity) {
  return static_cast<size_t>(std::bit_width(capacity) - 1);
}

}  // namespace

std::vector<uint8_t> BufferPool::acquire(size_t min_capacity) {
  // Requests of the class whose buffers all hold at least 2^c ≥ min bytes.
  const size_t want = static_cast<size_t>(std::bit_width(min_capacity - 1));
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = free_.size(); i-- > 0;) {
    if (min_capacity != 0 && class_of(free_[i].capacity()) != want) continue;
    std::vector<uint8_t> buf = std::move(free_[i]);
    free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
    idle_bytes_ -= buf.capacity();
    ++reuses_;
    buf.clear();
    return buf;
  }
  ++allocations_;
  std::vector<uint8_t> buf;
  if (min_capacity != 0) buf.reserve(std::bit_ceil(min_capacity));
  return buf;
}

void BufferPool::release(std::vector<uint8_t>&& buf) {
  const size_t cap = buf.capacity();
  if (cap == 0 || cap > kMaxIdleBytes) return;  // nothing worth keeping
  std::vector<std::vector<uint8_t>> evicted;  // freed outside the lock
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t drop = 0;
    while (free_.size() - drop >= kMaxFree ||
           idle_bytes_ + cap > kMaxIdleBytes) {
      idle_bytes_ -= free_[drop].capacity();
      ++drop;
    }
    evicted.assign(std::make_move_iterator(free_.begin()),
                   std::make_move_iterator(free_.begin() +
                                           static_cast<std::ptrdiff_t>(drop)));
    free_.erase(free_.begin(),
                free_.begin() + static_cast<std::ptrdiff_t>(drop));
    free_.push_back(std::move(buf));
    idle_bytes_ += cap;
  }
}

uint64_t BufferPool::allocations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return allocations_;
}

uint64_t BufferPool::reuses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reuses_;
}

size_t BufferPool::idle_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return idle_bytes_;
}

BufferPool& wire_pool() {
  // Never destroyed: a C-side value in a static object may be freed after
  // the pool would have been.
  static auto* pool = new BufferPool();
  return *pool;
}

// ---------------------------------------------------------------------------
// PooledBuffer
// ---------------------------------------------------------------------------

// An empty buffer borrows nothing: acquire(0) would hand out any buffer.
PooledBuffer::PooledBuffer(BufferPool& pool, size_t size) : pool_(&pool) {
  if (size != 0) buf_ = pool.acquire(size);
  buf_.resize(size);
}

PooledBuffer::PooledBuffer(BufferPool& pool, std::span<const uint8_t> bytes)
    : pool_(&pool) {
  if (!bytes.empty()) buf_ = pool.acquire(bytes.size());
  buf_.assign(bytes.begin(), bytes.end());
}

PooledBuffer::PooledBuffer(BufferPool& pool, std::vector<uint8_t>&& bytes)
    : pool_(&pool), buf_(std::move(bytes)) {}

PooledBuffer::PooledBuffer(PooledBuffer&& other) noexcept
    : pool_(std::exchange(other.pool_, nullptr)),
      buf_(std::move(other.buf_)) {}

PooledBuffer& PooledBuffer::operator=(PooledBuffer&& other) noexcept {
  if (this != &other) {
    give_back();
    pool_ = std::exchange(other.pool_, nullptr);
    buf_ = std::move(other.buf_);
  }
  return *this;
}

PooledBuffer::~PooledBuffer() { give_back(); }

void PooledBuffer::give_back() {
  if (pool_ != nullptr) pool_->release(std::move(buf_));
  buf_ = {};
}

}  // namespace lm::serde
