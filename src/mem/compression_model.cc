#include "mem/compression_model.h"

#include <algorithm>
#include <cstring>

#include "common/audit.h"
#include "common/log.h"

namespace caba {

CompressionModel::CompressionModel(const BackingStore &store, Algorithm algo,
                                   bool verify, std::size_t memo_cap)
    : store_(store), algo_(algo), verify_(verify), memo_cap_(memo_cap)
{
    CABA_CHECK(memo_cap_ > 0 && memo_cap_ < kNil,
               "memo capacity must be positive and fit the slab index");
    if (algo_ != Algorithm::None)
        codec_ = &getCodec(algo_);
}

void
CompressionModel::unlink(std::uint32_t i)
{
    Entry &e = slab_[i];
    if (e.prev != kNil)
        slab_[e.prev].next = e.next;
    else
        lru_front_ = e.next;
    if (e.next != kNil)
        slab_[e.next].prev = e.prev;
    else
        lru_back_ = e.prev;
}

void
CompressionModel::pushFront(std::uint32_t i)
{
    Entry &e = slab_[i];
    e.prev = kNil;
    e.next = lru_front_;
    if (lru_front_ != kNil)
        slab_[lru_front_].prev = i;
    else
        lru_back_ = i;
    lru_front_ = i;
}

std::size_t
CompressionModel::probe(Addr line) const
{
    const std::size_t mask = index_.size() - 1;
    for (std::size_t pos = home(line);; pos = (pos + 1) & mask) {
        const std::uint32_t v = index_[pos];
        if (v == 0 || slab_line_[v - 1] == line)
            return pos;
    }
}

void
CompressionModel::eraseAt(std::size_t pos)
{
    const std::size_t mask = index_.size() - 1;
    index_[pos] = 0;
    for (std::size_t j = (pos + 1) & mask; index_[j] != 0;
         j = (j + 1) & mask) {
        // Entry j may fill the hole when the hole lies on its probe
        // path, i.e. cyclically within [home, j).
        const std::size_t h = home(slab_line_[index_[j] - 1]);
        if (((j - h) & mask) >= ((j - pos) & mask)) {
            index_[pos] = index_[j];
            index_[j] = 0;
            pos = j;
        }
    }
}

void
CompressionModel::growIndex()
{
    if (index_.empty()) {
        // Reserved, not touched: pages count toward RSS only as the
        // slab fills, and up to the default capacity it never moves.
        const std::size_t reserve =
            std::min(memo_cap_, kDefaultMemoCapacity);
        slab_.reserve(reserve);
        slab_line_.reserve(reserve);
    }
    const std::size_t n = index_.empty() ? 64 : 2 * index_.size();
    index_.assign(n, 0);
    index_shift_ = 64;
    for (std::size_t m = n; m > 1; m >>= 1)
        --index_shift_;
    for (std::size_t i = 0; i < slab_line_.size(); ++i)
        index_[probe(slab_line_[i])] = static_cast<std::uint32_t>(i + 1);
}

std::uint32_t
CompressionModel::evictLru()
{
    const std::uint32_t victim = lru_back_;
    CABA_CHECK(victim != kNil, "memo LRU list out of sync");
    unlink(victim);
    eraseAt(probe(slab_line_[victim]));
    memo_bytes_ -= slab_[victim].bytes;
    ++memo_evictions_;
    return victim;
}

const CompressedLine &
CompressionModel::lookup(Addr line)
{
    CABA_CHECK(enabled(), "lookup on disabled compression model");
    if (index_.empty())
        growIndex();
    std::size_t pos = probe(line);
    std::uint32_t i;
    if (index_[pos] != 0) {
        i = index_[pos] - 1;
        if (i != lru_front_) {
            unlink(i);
            pushFront(i);
        }
    } else {
        if (slab_.size() >= memo_cap_) {
            i = evictLru();
            slab_[i] = Entry{};
            slab_line_[i] = line;
            pos = probe(line);          // the erase may have shifted it
        } else {
            i = static_cast<std::uint32_t>(slab_.size());
            slab_.emplace_back();
            slab_line_.push_back(line);
            if (2 * slab_.size() > index_.size()) {
                growIndex();            // indexes the new entry too
                pos = probe(line);
            }
        }
        index_[pos] = i + 1;
        pushFront(i);
        peak_memo_entries_ = std::max(peak_memo_entries_, slab_.size());
    }
    Entry &e = slab_[i];
    const std::uint64_t v = store_.version(line);
    if (e.version != v) {
        std::uint8_t buf[kLineSize];
        store_.read(line, buf);
        e.cl = codec_->compress(buf);
        e.version = v;
        const std::size_t foot = sizeof(Entry) + e.cl.bytes.capacity();
        memo_bytes_ += foot - e.bytes;
        e.bytes = foot;
        peak_memo_bytes_ = std::max(peak_memo_bytes_, memo_bytes_);
        ++lines_compressed_;
        compressed_bytes_ += static_cast<std::uint64_t>(e.cl.size());
        compressed_bursts_ += static_cast<std::uint64_t>(e.cl.bursts());
        compressed_line_bytes_.record(
            static_cast<std::uint64_t>(e.cl.size()));
        if (verify_) {
            std::uint8_t out[kLineSize];
            codec_->decompress(e.cl, out);
            CABA_CHECK(std::memcmp(buf, out, kLineSize) == 0,
                       "codec round-trip mismatch in memory image");
        }
    }
    return e.cl;
}

int
CompressionModel::compressedSize(Addr line)
{
    return enabled() ? lookup(line).size() : kLineSize;
}

int
CompressionModel::bursts(Addr line)
{
    return enabled() ? lookup(line).bursts() : kBurstsPerLine;
}

StatSet
CompressionModel::stats() const
{
    StatSet s;
    // A key appears only once its event happened: an unused model
    // exports none, and memo_evictions waits for the first eviction.
    if (peak_memo_entries_ > 0)
        s.set("memo_peak_entries",
              static_cast<std::uint64_t>(peak_memo_entries_));
    if (peak_memo_bytes_ > 0)
        s.set("memo_peak_bytes", static_cast<std::uint64_t>(peak_memo_bytes_));
    if (memo_evictions_ > 0)
        s.setCounter("memo_evictions", memo_evictions_);
    if (lines_compressed_ > 0) {
        s.setCounter("lines_compressed", lines_compressed_);
        s.setCounter("uncompressed_bytes", lines_compressed_ * kLineSize);
        s.setCounter("compressed_bytes", compressed_bytes_);
        s.setCounter("uncompressed_bursts",
                     lines_compressed_ * kBurstsPerLine);
        s.setCounter("compressed_bursts", compressed_bursts_);
        s.dist("compressed_line_bytes").merge(compressed_line_bytes_);
    }
    return s;
}

void
CompressionModel::audit(Audit &a) const
{
    const std::uint64_t uncompressed_bytes = lines_compressed_ * kLineSize;
    a.checkLe("model", "compressed_bytes <= uncompressed_bytes",
              compressed_bytes_, uncompressed_bytes);
    a.checkLe("model", "compressed_bursts <= uncompressed_bursts",
              compressed_bursts_, lines_compressed_ * kBurstsPerLine);
    // Every compression emits in [1, kLineSize] bytes, so totals bracket.
    a.checkLe("model", "compressed_bytes >= lines_compressed",
              lines_compressed_, compressed_bytes_);
    a.checkLe("model", "memo entries <= capacity",
              static_cast<std::uint64_t>(slab_.size()),
              static_cast<std::uint64_t>(memo_cap_));
    std::uint64_t listed = 0;
    for (std::uint32_t i = lru_front_; i != kNil && listed <= slab_.size();
         i = slab_[i].next)
        ++listed;
    a.checkEq("model", "memo map and LRU list agree",
              static_cast<std::uint64_t>(slab_.size()), listed);
}

} // namespace caba
