/**
 * @file
 * Assist Warp Store (Section 3.3): the on-chip buffer preloaded with the
 * assist-warp subroutines, indexed by subroutine id (SR.ID) and
 * instruction id (Inst.ID). Subroutines are synthesized once per
 * (purpose, algorithm, encoding) from the codec's instruction budget:
 * live-in MOVEs, loads of the compressed words, the arithmetic, and the
 * store of the result — mirroring the BDI mapping of Section 4.1.2.
 */
#ifndef CABA_CABA_AWS_H
#define CABA_CABA_AWS_H

#include <map>
#include <vector>

#include "caba/assist_warp.h"
#include "compress/codec.h"

namespace caba {

/** Pipeline latencies the AWS needs to materialize subroutines. */
struct AwsTiming
{
    int alu_latency = 6;
    int mem_latency = 20;   ///< Assist loads/stores are L1-local.
};

/** The subroutine store shared by all SMs (read-only after warm-up). */
class AssistWarpStore
{
  public:
    explicit AssistWarpStore(const AwsTiming &timing);

    /**
     * Subroutine that decompresses a line with @p cl's encoding using
     * @p codec. Cached per (codec, encoding); stable address.
     */
    const std::vector<AssistInstr> &decompressRoutine(
        const Codec &codec, const CompressedLine &cl);

    /** Subroutine that tests/perform compression of one line. */
    const std::vector<AssistInstr> &compressRoutine(const Codec &codec);

    /** Fixed-shape routine for memoization probes (Section 7.1). */
    const std::vector<AssistInstr> &memoizeRoutine();

    /** Fixed-shape routine that computes+issues a prefetch (Section 7.2). */
    const std::vector<AssistInstr> &prefetchRoutine();

    /** Fixed-shape routine that samples resident warps' stall vectors
     *  (the profiling generalization of the CABA framework paper). */
    const std::vector<AssistInstr> &profileRoutine();

    /** Number of distinct subroutines (SR.IDs in use). */
    int numSubroutines() const { return static_cast<int>(store_.size()); }

  private:
    /** Synthesizes the body for a given instruction budget. */
    std::vector<AssistInstr> synthesize(const SubroutineCost &cost) const;

    AwsTiming timing_;

    /** SR.ID key: (purpose tag, algorithm name hash, encoding). */
    std::map<std::pair<std::string, int>, std::vector<AssistInstr>> store_;
};

} // namespace caba

#endif // CABA_CABA_AWS_H
