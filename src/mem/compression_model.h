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
#include <list>
#include <unordered_map>

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

    std::size_t memoEntries() const { return memo_.size(); }
    std::size_t memoCapacity() const { return memo_cap_; }

    /** Byte / burst conservation and memo-bound invariant checks. */
    void audit(Audit &a) const;

  private:
    struct Entry
    {
        std::uint64_t version = ~std::uint64_t{0};
        CompressedLine cl;
        std::list<Addr>::iterator lru_it;
        std::size_t bytes = 0;  ///< Heap footprint charged to the memo.
    };

    void evictLru();

    const BackingStore &store_;
    Algorithm algo_;
    const Codec *codec_ = nullptr;
    bool verify_;
    std::size_t memo_cap_;
    std::unordered_map<Addr, Entry> memo_;
    std::list<Addr> lru_;           ///< Front = most recently used.
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
