#include "reconstruct/consensus.hh"

#include <algorithm>
#include <limits>

#include "align/edit_distance.hh"
#include "align/myers_batch.hh"
#include "base/logging.hh"

namespace dnasim
{

namespace
{

/**
 * Unweighted column voting: each copy's bases are counted into
 * per-column integer counters. Columns are decided by
 * BaseVote::winner's pluralityIndex(), so the result is bit-identical
 * to the weighted path with unit weights (unit weights are exact in
 * both integer and double arithmetic).
 */
Strand
unweightedPlurality(std::span<const Strand> copies, size_t design_len,
                    Rng &rng)
{
    thread_local std::vector<uint32_t> counts;
    counts.assign(kNumBases * design_len, 0);
    for (const Strand &copy : copies) {
        const size_t len = std::min(copy.size(), design_len);
        for (size_t pos = 0; pos < len; ++pos)
            ++counts[pos * kNumBases + baseIndex(copy[pos])];
    }

    Strand out;
    out.reserve(design_len);
    for (size_t pos = 0; pos < design_len; ++pos) {
        const uint32_t *c = &counts[pos * kNumBases];
        if (c[0] == 0 && c[1] == 0 && c[2] == 0 && c[3] == 0) {
            out.push_back('A'); // no copy reaches this column
            continue;
        }
        out.push_back(kBaseChars[pluralityIndex(c, rng)]);
    }
    return out;
}

} // anonymous namespace

Strand
positionalPlurality(std::span<const Strand> copies, size_t design_len,
                    Rng &rng, std::span<const double> weights)
{
    DNASIM_ASSERT(weights.empty() || weights.size() == copies.size(),
                  "weight/copy count mismatch");
    if (weights.empty())
        return unweightedPlurality(copies, design_len, rng);
    Strand out;
    out.reserve(design_len);
    BaseVote vote;
    for (size_t pos = 0; pos < design_len; ++pos) {
        vote.clear();
        for (size_t k = 0; k < copies.size(); ++k) {
            if (pos >= copies[k].size())
                continue;
            if (weights[k] > 0.0)
                vote.add(copies[k][pos], weights[k]);
        }
        out.push_back(vote.empty() ? 'A' : vote.winner(rng));
    }
    return out;
}

Strand
alignedConsensus(const Strand &estimate,
                 std::span<const Strand> copies, Rng &rng,
                 std::span<const double> weights)
{
    DNASIM_ASSERT(weights.empty() || weights.size() == copies.size(),
                  "weight/copy count mismatch");
    const size_t len = estimate.size();

    // Reused vote buffers: one alignedConsensus call runs per
    // refinement round per cluster, and the old per-call vectors
    // were a steady allocation source in the reconstruction loop.
    thread_local std::vector<BaseVote> base_votes;
    thread_local std::vector<double> del_votes;
    thread_local std::vector<std::array<double, kNumBases>> ins_votes;
    base_votes.assign(len, BaseVote{});
    del_votes.assign(len, 0.0);
    // Insertion votes for the gap before position i (i == len is an
    // append).
    ins_votes.assign(len + 1, std::array<double, kNumBases>{});
    double total_weight = 0.0;

    // One Peq table build for the estimate serves the edit-script
    // engine across every copy in the cluster.
    thread_local MyersPattern pattern;
    pattern.assign(estimate);

    for (size_t c = 0; c < copies.size(); ++c) {
        double w = weights.empty() ? 1.0 : weights[c];
        if (w <= 0.0)
            continue;
        total_weight += w;
        // Deterministic (leftmost) alignments keep equally-minimal
        // edit scripts attributed to the same positions across
        // copies, so their votes reinforce instead of spreading. The
        // walk visits ops back to front; every add one copy makes to
        // a vote cell has the same weight w, so the sums are the
        // ones a front-to-back fold gives.
        const Strand &copy = copies[c];
        editOpsWalk(pattern, estimate, copy, nullptr,
                    [&](EditOpType type, size_t i, size_t j) {
                        switch (type) {
                          case EditOpType::Equal:
                          case EditOpType::Substitute:
                            base_votes[i].add(copy[j], w);
                            break;
                          case EditOpType::Delete:
                            del_votes[i] += w;
                            break;
                          case EditOpType::Insert:
                            ins_votes[i][baseIndex(copy[j])] += w;
                            break;
                        }
                    });
    }

    Strand out;
    out.reserve(len + 4);
    const double half = total_weight / 2.0;
    for (size_t i = 0; i <= len; ++i) {
        // Materialize at most one majority-supported insertion per
        // gap.
        size_t best = 0;
        for (size_t b = 1; b < kNumBases; ++b)
            if (ins_votes[i][b] > ins_votes[i][best])
                best = b;
        if (ins_votes[i][best] > half)
            out.push_back(kBaseChars[best]);
        if (i == len)
            break;
        if (del_votes[i] > half)
            continue; // majority says this position never existed
        out.push_back(base_votes[i].empty()
                          ? estimate[i]
                          : base_votes[i].winner(rng));
    }
    return out;
}

size_t
totalEditDistance(const Strand &estimate,
                  std::span<const Strand> copies)
{
    // One Myers pattern for the estimate, scored against every copy
    // by the batch kernel — one copy per SIMD lane, exact distances
    // (levenshtein() would rebuild the match tables per copy; the
    // old scalar loop ran one copy at a time). Pattern and view
    // scratch are thread-local so the candidate-scoring loop in
    // enforceDesignLength() stays allocation-free in steady state.
    thread_local MyersPattern pattern;
    thread_local std::vector<std::string_view> views;
    pattern.assign(estimate);
    views.assign(copies.begin(), copies.end());
    return myersBatchTotalDistance(pattern, views);
}

Strand
enforceDesignLength(Strand estimate, std::span<const Strand> copies,
                    size_t design_len, Rng &rng)
{
    constexpr size_t max_candidates = 8;
    size_t guard = 8;

    // Per-iteration voting and candidate scratch, hoisted out of the
    // loop (and the function) to match the allocation discipline of
    // alignedConsensus(): this runs for every length-mismatched
    // cluster, up to eight rounds each.
    thread_local std::vector<double> del_votes;
    thread_local std::vector<std::array<double, kNumBases>> ins_votes;
    thread_local std::vector<Strand> candidates;
    thread_local std::vector<size_t> order;
    thread_local MyersPattern pattern;

    while (estimate.size() != design_len && guard-- > 0) {
        const size_t len = estimate.size();

        // Vote over indel attributions against the current estimate.
        del_votes.assign(len, 0.0);
        ins_votes.assign(len + 1, std::array<double, kNumBases>{});
        pattern.assign(estimate);
        for (const auto &copy : copies) {
            editOpsWalk(pattern, estimate, copy, nullptr,
                        [&](EditOpType type, size_t i, size_t j) {
                            if (type == EditOpType::Delete)
                                del_votes[i] += 1.0;
                            else if (type == EditOpType::Insert)
                                ins_votes[i][baseIndex(copy[j])] += 1.0;
                        });
        }

        candidates.clear();
        if (len > design_len) {
            // Rank positions by deletion votes; always include the
            // last position as a fallback.
            order.resize(len);
            for (size_t i = 0; i < len; ++i)
                order[i] = i;
            std::sort(order.begin(), order.end(),
                      [&](size_t a, size_t b) {
                          return del_votes[a] > del_votes[b];
                      });
            for (size_t k = 0;
                 k < std::min(max_candidates, order.size()); ++k) {
                Strand cand = estimate;
                cand.erase(cand.begin() +
                           static_cast<ptrdiff_t>(order[k]));
                candidates.push_back(std::move(cand));
            }
            Strand tail = estimate;
            tail.pop_back();
            candidates.push_back(std::move(tail));
        } else {
            // Rank (gap, base) insertions by votes; fall back to
            // appending each base at the end.
            struct GapCand
            {
                size_t gap;
                size_t base;
                double votes;
            };
            thread_local std::vector<GapCand> gaps;
            gaps.clear();
            for (size_t g = 0; g <= len; ++g)
                for (size_t b = 0; b < kNumBases; ++b)
                    if (ins_votes[g][b] > 0.0)
                        gaps.push_back({g, b, ins_votes[g][b]});
            std::sort(gaps.begin(), gaps.end(),
                      [](const GapCand &a, const GapCand &b) {
                          return a.votes > b.votes;
                      });
            for (size_t k = 0;
                 k < std::min(max_candidates, gaps.size()); ++k) {
                Strand cand = estimate;
                cand.insert(cand.begin() +
                                static_cast<ptrdiff_t>(gaps[k].gap),
                            kBaseChars[gaps[k].base]);
                candidates.push_back(std::move(cand));
            }
            for (char base : kBaseChars) {
                Strand cand = estimate;
                cand.push_back(base);
                candidates.push_back(std::move(cand));
            }
        }

        // Pick the maximum-likelihood candidate (minimum total edit
        // distance to the cluster).
        size_t best_idx = 0;
        size_t best_cost = std::numeric_limits<size_t>::max();
        for (size_t k = 0; k < candidates.size(); ++k) {
            size_t cost = totalEditDistance(candidates[k], copies);
            if (cost < best_cost) {
                best_cost = cost;
                best_idx = k;
            }
        }
        estimate = std::move(candidates[best_idx]);

        // The length move may unblock further consensus refinement.
        Strand refined = alignedConsensus(estimate, copies, rng);
        if (refined.size() == design_len ||
            (refined.size() != estimate.size() &&
             totalEditDistance(refined, copies) <= best_cost)) {
            estimate = std::move(refined);
        }
    }

    // Guarantee the length even if the search stalled.
    if (estimate.size() > design_len)
        estimate.resize(design_len);
    while (estimate.size() < design_len)
        estimate.push_back('A');
    return estimate;
}

uint32_t
PositionVote::margin() const
{
    uint32_t best = 0, second = 0;
    for (uint32_t v : base_votes) {
        if (v > best) {
            second = best;
            best = v;
        } else if (v > second) {
            second = v;
        }
    }
    return best - second;
}

std::vector<PositionVote>
consensusVoteProfile(const Strand &estimate,
                     std::span<const Strand> copies,
                     std::vector<std::string> *per_copy)
{
    std::vector<PositionVote> votes(estimate.size());
    if (per_copy != nullptr)
        per_copy->assign(copies.size(),
                         std::string(estimate.size(), '\0'));

    thread_local MyersPattern pattern;
    pattern.assign(estimate);
    for (size_t k = 0; k < copies.size(); ++k) {
        // The deterministic leftmost scripts alignedConsensus()
        // collects votes from.
        const Strand &copy = copies[k];
        std::string *copy_votes =
            per_copy != nullptr ? &(*per_copy)[k] : nullptr;
        editOpsWalk(pattern, estimate, copy, nullptr,
                    [&](EditOpType type, size_t i, size_t j) {
                        switch (type) {
                          case EditOpType::Equal:
                          case EditOpType::Substitute:
                            ++votes[i].base_votes[baseIndex(copy[j])];
                            if (copy_votes != nullptr)
                                (*copy_votes)[i] = copy[j];
                            break;
                          case EditOpType::Delete:
                            ++votes[i].deletion_votes;
                            if (copy_votes != nullptr)
                                (*copy_votes)[i] = '-';
                            break;
                          case EditOpType::Insert:
                            break; // between positions: not positional
                        }
                    });
    }
    return votes;
}

} // namespace dnasim
