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
    CABA_CHECK(memo_cap_ > 0, "memo capacity must be positive");
    if (algo_ != Algorithm::None)
        codec_ = &getCodec(algo_);
}

void
CompressionModel::evictLru()
{
    const Addr victim = lru_.back();
    auto it = memo_.find(victim);
    CABA_CHECK(it != memo_.end(), "memo LRU list out of sync");
    memo_bytes_ -= it->second.bytes;
    memo_.erase(it);
    lru_.pop_back();
    ++memo_evictions_;
}

const CompressedLine &
CompressionModel::lookup(Addr line)
{
    CABA_CHECK(enabled(), "lookup on disabled compression model");
    auto it = memo_.find(line);
    if (it == memo_.end()) {
        if (memo_.size() >= memo_cap_)
            evictLru();
        lru_.push_front(line);
        it = memo_.emplace(line, Entry{}).first;
        it->second.lru_it = lru_.begin();
        peak_memo_entries_ = std::max(peak_memo_entries_, memo_.size());
    } else {
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    }
    Entry &e = it->second;
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
              static_cast<std::uint64_t>(memo_.size()),
              static_cast<std::uint64_t>(memo_cap_));
    a.checkEq("model", "memo map and LRU list agree",
              static_cast<std::uint64_t>(memo_.size()),
              static_cast<std::uint64_t>(lru_.size()));
}

} // namespace caba
