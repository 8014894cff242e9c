#include "compress/bdi.h"

#include <array>
#include <cstring>

#include "common/bitops.h"
#include "common/log.h"

namespace caba {

namespace {

/** Compressed bytes of a base-delta encoding (layout in bdi.h). */
constexpr int
baseDeltaBytes(int word_b, int delta_b)
{
    const int n = kLineSize / word_b;
    return 1 + n / 8 + word_b + n * delta_b;
}

/** Base-delta encodings in ascending compressed size, so the first one
 *  that fits is the smallest. B2D1 and B8D4 tie; B2D1 goes first, the
 *  tie-break of the historical smallest-of-all search. */
constexpr std::array<BdiEncoding, 6> kBaseDeltaBySize = {
    BdiEncoding::B8D1, BdiEncoding::B4D1, BdiEncoding::B8D2,
    BdiEncoding::B4D2, BdiEncoding::B2D1, BdiEncoding::B8D4,
};
static_assert(baseDeltaBytes(8, 1) < baseDeltaBytes(4, 1) &&
                  baseDeltaBytes(4, 1) < baseDeltaBytes(8, 2) &&
                  baseDeltaBytes(8, 2) < baseDeltaBytes(4, 2) &&
                  baseDeltaBytes(4, 2) < baseDeltaBytes(2, 1) &&
                  baseDeltaBytes(2, 1) == baseDeltaBytes(8, 4),
              "kBaseDeltaBySize must list encodings by compressed size");

bool
lineIsZero(const std::uint8_t *line)
{
    std::uint64_t acc = 0;
    for (int i = 0; i < kLineSize; i += 8)
        acc |= loadLe(line + i, 8);
    return acc == 0;
}

bool
lineIsRepeated8(const std::uint8_t *line)
{
    // Byte-periodic with period 8 == every aligned 8-byte word equals
    // the first one (kLineSize is a multiple of 8).
    const std::uint64_t first = loadLe(line, 8);
    std::uint64_t diff = 0;
    for (int i = 8; i < kLineSize; i += 8)
        diff |= loadLe(line + i, 8) ^ first;
    return diff == 0;
}

/**
 * Encodes @p line as base-delta encoding @p enc (word @p W bytes, delta
 * @p D bytes) into @p out; false, leaving @p out untouched, when some
 * element fits neither the base nor the implicit zero base. The sizes
 * are template arguments so every per-element load, sign extension and
 * fit test below has a constant width.
 */
template <int W, int D>
bool
encodeBaseDelta(const std::uint8_t *line, BdiEncoding enc,
                CompressedLine *out)
{
    constexpr int n = kLineSize / W;
    constexpr int mask_b = n / 8;

    // Pick the first non-zero element as the explicit base; an implicit
    // zero base covers small immediates (paper Section 4.1.1).
    std::uint64_t base = 0;
    bool have_base = false;
    std::array<std::uint64_t, n> vals;
    for (int i = 0; i < n; ++i) {
        vals[i] = loadLe(line + i * W, W);
        if (!have_base && vals[i] != 0) {
            base = vals[i];
            have_base = true;
        }
    }

    // Deltas are word-width modular differences (the adder that
    // reconstructs values truncates to the word size, so a delta that
    // wraps the signed boundary is still exact).
    constexpr std::uint64_t word_mask =
        W == 8 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (8 * W)) - 1);
    // Fixed-trip, branch-free accumulation (SIMD-friendly: a misfit
    // element clears `ok` instead of early-exiting the loop).
    std::array<std::int64_t, n> delta;
    std::uint64_t use_base_mask = 0;
    bool ok = true;
    for (int i = 0; i < n; ++i) {
        const std::int64_t d_base = signExtend((vals[i] - base) & word_mask, W);
        const std::int64_t d_zero = signExtend(vals[i], W);
        const bool base_fits = have_base && fitsSigned(d_base, D);
        const bool zero_fits = fitsSigned(d_zero, D);
        delta[i] = base_fits ? d_base : d_zero;
        use_base_mask |= base_fits ? std::uint64_t{1} << i : 0;
        ok = ok && (base_fits || zero_fits);
    }
    if (!ok)
        return false;

    constexpr int total = baseDeltaBytes(W, D);
    static_assert(total < kLineSize, "base-delta encoding must save bytes");
    out->encoding = static_cast<int>(enc);
    out->bytes.assign(static_cast<std::size_t>(total), 0);
    std::uint8_t *p = out->bytes.data();
    p[0] = static_cast<std::uint8_t>(enc);
    storeLe(p + 1, mask_b, use_base_mask);
    storeLe(p + 1 + mask_b, W, base);
    for (int i = 0; i < n; ++i) {
        storeLe(p + 1 + mask_b + W + i * D, D,
                static_cast<std::uint64_t>(delta[i]));
    }
    return true;
}

} // namespace

int
bdiWordSize(BdiEncoding enc)
{
    switch (enc) {
      case BdiEncoding::B8D1:
      case BdiEncoding::B8D2:
      case BdiEncoding::B8D4:
        return 8;
      case BdiEncoding::B4D1:
      case BdiEncoding::B4D2:
        return 4;
      case BdiEncoding::B2D1:
        return 2;
      default:
        CABA_PANIC("word size queried for non base-delta encoding");
    }
}

int
bdiDeltaSize(BdiEncoding enc)
{
    switch (enc) {
      case BdiEncoding::B8D1:
      case BdiEncoding::B4D1:
      case BdiEncoding::B2D1:
        return 1;
      case BdiEncoding::B8D2:
      case BdiEncoding::B4D2:
        return 2;
      case BdiEncoding::B8D4:
        return 4;
      default:
        CABA_PANIC("delta size queried for non base-delta encoding");
    }
}

bool
BdiCodec::tryEncode(const std::uint8_t *line, BdiEncoding enc,
                    CompressedLine *out) const
{
    switch (enc) {
      case BdiEncoding::B8D1: return encodeBaseDelta<8, 1>(line, enc, out);
      case BdiEncoding::B8D2: return encodeBaseDelta<8, 2>(line, enc, out);
      case BdiEncoding::B8D4: return encodeBaseDelta<8, 4>(line, enc, out);
      case BdiEncoding::B4D1: return encodeBaseDelta<4, 1>(line, enc, out);
      case BdiEncoding::B4D2: return encodeBaseDelta<4, 2>(line, enc, out);
      case BdiEncoding::B2D1: return encodeBaseDelta<2, 1>(line, enc, out);
      default:
        CABA_PANIC("tryEncode with a non base-delta encoding");
    }
}

CompressedLine
BdiCodec::compress(const std::uint8_t *line) const
{
    CompressedLine cl;
    if (lineIsZero(line)) {
        cl.encoding = static_cast<int>(BdiEncoding::Zeros);
        cl.bytes = {static_cast<std::uint8_t>(BdiEncoding::Zeros)};
        return cl;
    }
    if (lineIsRepeated8(line)) {
        cl.encoding = static_cast<int>(BdiEncoding::Repeat);
        cl.bytes.assign(9, 0);
        cl.bytes[0] = static_cast<std::uint8_t>(BdiEncoding::Repeat);
        std::memcpy(cl.bytes.data() + 1, line, 8);
        return cl;
    }

    if (preferred_ != BdiEncoding::Uncompressed) {
        if (tryEncode(line, preferred_, &cl))
            return cl;
    } else {
        for (BdiEncoding enc : kBaseDeltaBySize) {
            if (tryEncode(line, enc, &cl))
                return cl;
        }
    }

    cl.encoding = static_cast<int>(BdiEncoding::Uncompressed);
    cl.bytes.assign(kLineSize, 0);
    std::memcpy(cl.bytes.data(), line, kLineSize);
    return cl;
}

void
BdiCodec::decompress(const CompressedLine &cl, std::uint8_t *out) const
{
    const auto enc = static_cast<BdiEncoding>(cl.encoding);
    const std::uint8_t *p = cl.bytes.data();
    switch (enc) {
      case BdiEncoding::Zeros:
        std::memset(out, 0, kLineSize);
        return;
      case BdiEncoding::Repeat:
        for (int i = 0; i < kLineSize; i += 8)
            std::memcpy(out + i, p + 1, 8);
        return;
      case BdiEncoding::Uncompressed:
        CABA_CHECK(cl.size() == kLineSize, "bad uncompressed BDI line");
        std::memcpy(out, p, kLineSize);
        return;
      default:
        break;
    }

    const int word_b = bdiWordSize(enc);
    const int delta_b = bdiDeltaSize(enc);
    const int n = kLineSize / word_b;
    const int mask_b = n / 8;
    CABA_CHECK(cl.size() == baseDeltaBytes(word_b, delta_b),
               "BDI compressed size mismatch");

    const std::uint64_t use_base_mask = loadLe(p + 1, mask_b);
    const std::int64_t base = signExtend(loadLe(p + 1 + mask_b, word_b),
                                         word_b);
    for (int i = 0; i < n; ++i) {
        const std::int64_t d = signExtend(
            loadLe(p + 1 + mask_b + word_b + i * delta_b, delta_b), delta_b);
        const std::int64_t v = (use_base_mask >> i & 1) ? base + d : d;
        storeLe(out + i * word_b, word_b, static_cast<std::uint64_t>(v));
    }
}

SubroutineCost
BdiCodec::decompressCost(const CompressedLine &cl) const
{
    // Paper Section 4.1.2: load compressed words into assist-warp
    // registers, masked vector add of deltas to bases, store the expanded
    // line back to the cache. One 32-wide ALU op covers 32 deltas; 8-byte
    // words need only 8 lanes but still one issue slot.
    const auto enc = static_cast<BdiEncoding>(cl.encoding);
    switch (enc) {
      case BdiEncoding::Zeros:
        return {1, 1};          // splat zero + store line
      case BdiEncoding::Repeat:
        return {1, 2};          // load value, splat + store
      case BdiEncoding::Uncompressed:
        return {0, 0};          // never deployed
      default: {
        const int n = kLineSize / bdiWordSize(enc);
        const int add_ops = divCeil(n, kWarpSize);
        // load compressed line (1), unpack deltas (1), masked add(s),
        // store uncompressed line (1 wide store).
        return {1 + add_ops, 2};
      }
    }
}

SubroutineCost
BdiCodec::compressCost() const
{
    // Test one encoding in the common case (Section 4.1.2): load line,
    // compute deltas, per-lane fit predicate + global AND reduction, pack,
    // store. Charged whether or not the encoding succeeds.
    return {4, 2};
}

} // namespace caba
