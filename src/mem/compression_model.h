/**
 * @file
 * Shared functional view of compressed main memory: for any line it
 * yields the compressed image of the line's *current* contents, memoized
 * by (line, version). This models the paper's setup where data lives in
 * DRAM in compressed form (initially prepared on the host, Section 4.3.1,
 * and kept compressed by store-side assist warps thereafter).
 */
#ifndef CABA_MEM_COMPRESSION_MODEL_H
#define CABA_MEM_COMPRESSION_MODEL_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "compress/codec.h"
#include "compress/registry.h"
#include "mem/backing_store.h"

namespace caba {

class Audit;

/** Compressed-size/encoding oracle with round-trip verification. */
class CompressionModel
{
  public:
    /** Default memo capacity in entries (LRU-evicted beyond this). */
    static constexpr std::size_t kDefaultMemoCapacity = 32768;

    /**
     * @param store    functional memory the compressed images mirror
     * @param algo     algorithm used for lines in memory (None = disabled)
     * @param verify   when true, every lookup round-trips the codec and
     *                 panics on mismatch (on by default; cheap)
     * @param memo_cap memoization capacity in lines; the memo is a pure
     *                 cache over (line, version), so eviction never
     *                 changes results, only recompression work
     */
    CompressionModel(const BackingStore &store, Algorithm algo,
                     bool verify = true,
                     std::size_t memo_cap = kDefaultMemoCapacity);

    /**
     * Compressed image of @p line's current contents. The reference is
     * valid only until the next lookup (an LRU eviction may reclaim it).
     */
    const CompressedLine &lookup(Addr line);

    /** Compressed size in bytes of the line's current contents. */
    int compressedSize(Addr line);

    /** DRAM bursts for the line's current contents. */
    int bursts(Addr line);

    Algorithm algorithm() const { return algo_; }
    bool enabled() const { return algo_ != Algorithm::None; }

    /** Aggregate compressibility counters (lines, bytes, bursts) plus
     *  memo_peak_entries / memo_peak_bytes / memo_evictions. A key is
     *  present only once its event happened (no keys before the first
     *  lookup, no memo_evictions before the first eviction). */
    StatSet stats() const;

    std::size_t memoEntries() const { return slab_.size(); }
    std::size_t memoCapacity() const { return memo_cap_; }

    /** Byte / burst conservation and memo-bound invariant checks. */
    void audit(Audit &a) const;

  private:
    /** No slab index (an empty LRU list end). */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    struct Entry
    {
        std::uint64_t version = ~std::uint64_t{0};
        CompressedLine cl;
        std::uint32_t prev = kNil;  ///< LRU neighbour toward the front.
        std::uint32_t next = kNil;  ///< LRU neighbour toward the back.
        std::size_t bytes = 0;  ///< Heap footprint charged to the memo.
    };
    // memo_peak_bytes charges sizeof(Entry) per line: a new layout would
    // change that exported gauge.
    static_assert(sizeof(Entry) == 56, "memo Entry layout changed");

    void unlink(std::uint32_t i);
    void pushFront(std::uint32_t i);

    /** Evicts the least recently used line; returns its freed slot. */
    std::uint32_t evictLru();

    std::size_t
    home(Addr line) const
    {
        return static_cast<std::size_t>(
            (line * 0x9E3779B97F4A7C15ull) >> index_shift_);
    }

    /** Index position holding @p line, or the empty one ending its
     *  probe run. */
    std::size_t probe(Addr line) const;

    /** Empties index position @p pos; later entries of its probe run
     *  shift back into the hole. */
    void eraseAt(std::size_t pos);

    /** Doubles the index (first use: allocates the memo). */
    void growIndex();

    const BackingStore &store_;
    Algorithm algo_;
    const Codec *codec_ = nullptr;
    bool verify_;
    std::size_t memo_cap_;
    // The memo: a slab of entries (grown up to memo_cap_, then recycled
    // by eviction, so every slab entry is live), an open-addressed index
    // of slab positions + 1 (0 = empty) probed linearly from the line's
    // hash and kept at most half full, and an intrusive LRU list
    // threaded through the slab by index. The index reads keys from
    // slab_line_ instead of storing them: 4-byte slots, not FlatMap's
    // 16, keep peak RSS down at up to 32768 lines a cell.
    std::vector<Entry> slab_;
    std::vector<Addr> slab_line_;   ///< Line held by each slab entry.
    std::vector<std::uint32_t> index_;
    unsigned index_shift_ = 64;
    std::uint32_t lru_front_ = kNil;    ///< Most recently used.
    std::uint32_t lru_back_ = kNil;     ///< Least recently used.
    std::size_t memo_bytes_ = 0;
    std::size_t peak_memo_bytes_ = 0;
    std::size_t peak_memo_entries_ = 0;

    // counters (hot path: plain members, assembled by stats())
    std::uint64_t lines_compressed_ = 0;
    std::uint64_t compressed_bytes_ = 0;
    std::uint64_t compressed_bursts_ = 0;
    std::uint64_t memo_evictions_ = 0;
    Distribution compressed_line_bytes_;
};

} // namespace caba

#endif // CABA_MEM_COMPRESSION_MODEL_H
