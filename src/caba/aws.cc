#include "caba/aws.h"

namespace caba {

AssistWarpStore::AssistWarpStore(const AwsTiming &timing)
    : timing_(timing)
{}

std::vector<AssistInstr>
AssistWarpStore::synthesize(const SubroutineCost &cost) const
{
    // Shape (Section 4.1.2): MOVE of live-in registers from the parent
    // warp, loads of the compressed words, the SIMD arithmetic, and one
    // store of the result line. mem_ops is split as (mem_ops-1) loads +
    // 1 store. An instruction's latency field is the delay before the
    // *next* instruction in the subroutine may issue: true dependences
    // (load -> arithmetic -> store) pay full latency; the arithmetic
    // ops themselves are independent encoding/lane work and pipeline
    // back to back, with only the last one joining before the store.
    std::vector<AssistInstr> code;
    code.push_back({false, 1});                         // live-in MOVE
    const int loads = cost.mem_ops > 0 ? cost.mem_ops - 1 : 0;
    for (int i = 0; i < loads; ++i)
        code.push_back({true, timing_.mem_latency});
    for (int i = 0; i < cost.alu_ops; ++i) {
        const bool last = i + 1 == cost.alu_ops;
        code.push_back({false, last ? timing_.alu_latency : 1});
    }
    if (cost.mem_ops > 0)
        code.push_back({true, timing_.mem_latency});    // result store
    return code;
}

const std::vector<AssistInstr> &
AssistWarpStore::decompressRoutine(const Codec &codec,
                                   const CompressedLine &cl)
{
    const auto key = std::make_pair("dec:" + codec.name(), cl.encoding);
    auto it = store_.find(key);
    if (it == store_.end())
        it = store_.emplace(key, synthesize(codec.decompressCost(cl))).first;
    return it->second;
}

const std::vector<AssistInstr> &
AssistWarpStore::compressRoutine(const Codec &codec)
{
    const auto key = std::make_pair("cmp:" + codec.name(), 0);
    auto it = store_.find(key);
    if (it == store_.end())
        it = store_.emplace(key, synthesize(codec.compressCost())).first;
    return it->second;
}

const std::vector<AssistInstr> &
AssistWarpStore::memoizeRoutine()
{
    const auto key = std::make_pair(std::string("memoize"), 0);
    auto it = store_.find(key);
    if (it == store_.end()) {
        // Hash live-ins (2 ALU) + shared-memory LUT probe (1 mem).
        it = store_.emplace(key, synthesize({2, 1})).first;
    }
    return it->second;
}

const std::vector<AssistInstr> &
AssistWarpStore::prefetchRoutine()
{
    const auto key = std::make_pair(std::string("prefetch"), 0);
    auto it = store_.find(key);
    if (it == store_.end()) {
        // Stride compute (2 ALU) + prefetch issue (1 mem).
        it = store_.emplace(key, synthesize({2, 1})).first;
    }
    return it->second;
}

const std::vector<AssistInstr> &
AssistWarpStore::profileRoutine()
{
    const auto key = std::make_pair(std::string("profile"), 0);
    auto it = store_.find(key);
    if (it == store_.end()) {
        // Read scheduler stall vectors (2 ALU) + store the sample to
        // the shared-memory ring (1 mem).
        it = store_.emplace(key, synthesize({2, 1})).first;
    }
    return it->second;
}

} // namespace caba
