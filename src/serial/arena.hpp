// A recycling pool of wire buffers.
//
// Encoding a message is the hottest allocation site in the data plane: every
// ORB request, reply, and GCS protocol message builds a fresh Bytes.  The
// arena breaks that pattern by keeping a small stack of retired buffers
// (typically the wire buffers of *received* messages, returned here after
// dispatch) whose capacity the next encode reuses.  Under a steady
// request/reply load the same few buffers circulate and the encode path
// allocates nothing.
//
// The pool is deliberately bounded, in count and in per-buffer capacity, so
// a single pathological message cannot pin a large allocation forever.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace newtop {

class EncodeArena {
public:
    /// A cleared buffer with at least `reserve_hint` capacity — recycled
    /// when possible, freshly reserved otherwise.  A fresh reserve rounds up
    /// to a multiple of kCapacityStep: compact (varint) messages of one kind
    /// differ by a byte or two, and the slack lets the next one reuse the
    /// buffer instead of reallocating it.
    [[nodiscard]] Bytes acquire(std::size_t reserve_hint) {
        Bytes b;
        if (!pool_.empty()) {
            b = std::move(pool_.back());
            pool_.pop_back();
            b.clear();
        }
        if (b.capacity() < reserve_hint) {
            b.reserve((reserve_hint + kCapacityStep - 1) / kCapacityStep * kCapacityStep);
        }
        return b;
    }

    /// Return a retired buffer's storage to the pool.  Oversized or surplus
    /// buffers are dropped (freed) instead of pooled.
    void recycle(Bytes b) {
        if (pool_.size() >= kMaxPooled || b.capacity() > kMaxPooledCapacity) return;
        // newtop-lint: allow(hot-path-alloc): pool is bounded at kMaxPooled; growth stops after warm-up
        pool_.push_back(std::move(b));
    }

    [[nodiscard]] std::size_t pooled() const { return pool_.size(); }

private:
    static constexpr std::size_t kMaxPooled = 16;
    static constexpr std::size_t kCapacityStep = 64;
    static constexpr std::size_t kMaxPooledCapacity = std::size_t{1} << 20;  // 1 MiB

    std::vector<Bytes> pool_;
};

}  // namespace newtop
