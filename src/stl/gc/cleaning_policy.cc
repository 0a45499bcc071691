#include "cleaning_policy.h"

#include <limits>

#include "util/logging.h"

namespace logseek::stl::gc
{

const char *
toString(CleaningPolicyKind kind)
{
    switch (kind) {
    case CleaningPolicyKind::Greedy:
        return "greedy";
    case CleaningPolicyKind::CostBenefit:
        return "cost-benefit";
    case CleaningPolicyKind::ZoneGranular:
        return "zone-granular";
    }
    fatal("toString: unknown cleaning policy kind");
}

namespace
{

/**
 * Historical behaviour of FiniteLogStructuredLayer: the closed
 * segment with the least live data, lowest index breaking ties, and
 * nullopt once even the best candidate is fully live. The loop shape
 * (strict <, full-live sentinel) is pinned by a differential test
 * against ReferenceFiniteLog — change nothing here without updating
 * that pin.
 */
std::optional<std::uint32_t>
greedyScan(const SegmentStateView &view)
{
    std::uint32_t victim = 0;
    SectorCount best = view.segmentSectors;
    bool found = false;
    for (std::uint32_t i = 0; i < view.segments.size(); ++i) {
        const SegmentInfo &segment = view.segments[i];
        if (segment.free || segment.open)
            continue;
        if (segment.live < best) {
            best = segment.live;
            victim = i;
            found = true;
        }
    }
    if (!found || best >= view.segmentSectors)
        return std::nullopt;
    return victim;
}

/**
 * Sprite-LFS cost-benefit cleaning: score each closed segment by
 * age x (1 - u) / (1 + u), where u is the live fraction and age the
 * logical ticks since the segment's last write. Unlike greedy this
 * will reclaim a moderately utilized segment that has been stable
 * for a long time in preference to a just-written emptier one — the
 * stable one's survivors are likely cold and won't be moved again,
 * which is what lowers write amplification under hot/cold skew.
 *
 * The scan runs in integers of type Word: benefit/cost =
 * age * (S - live) / (S + live), compared cross-multiplied so no
 * division rounding enters the victim choice. Word must hold every
 * product the scan forms; see productsFit64.
 */
template <typename Word>
std::optional<std::uint32_t>
costBenefitScan(const SegmentStateView &view)
{
    const SectorCount sectors = view.segmentSectors;
    std::uint32_t victim = 0;
    // Score numerator/denominator of the current best.
    Word best_num = 0;
    Word best_den = 1;
    bool found = false;
    for (std::uint32_t i = 0; i < view.segments.size(); ++i) {
        const SegmentInfo &segment = view.segments[i];
        if (segment.free || segment.open)
            continue;
        const SectorCount live = segment.live;
        if (live >= sectors)
            continue; // fully live: reclaiming frees nothing
        const std::uint64_t age = view.now - segment.lastWrite + 1;
        const Word num = static_cast<Word>(age) * (sectors - live);
        const Word den = sectors + live;
        // num/den > best_num/best_den, lowest index on ties.
        if (!found || num * best_den > best_num * den) {
            best_num = num;
            best_den = den;
            victim = i;
            found = true;
        }
    }
    if (!found)
        return std::nullopt;
    return victim;
}

/**
 * True when every product costBenefitScan forms fits in 64 bits.
 * A numerator is at most (now + 1) * S and a denominator below 2S,
 * since ages are at most now + 1 and a candidate has live < S; so
 * a product stays below (now + 1) * 2S^2.
 */
bool
productsFit64(const SegmentStateView &view)
{
    const std::uint64_t sectors = view.segmentSectors;
    if (sectors == 0 || sectors >= (1ULL << 31))
        return false;
    const std::uint64_t scale = 2 * sectors * sectors; // < 2^63
    return view.now <
           std::numeric_limits<std::uint64_t>::max() / scale;
}

/**
 * SMORE-style zone-granular reclamation. Victim choice is greedy
 * over whole zones (segments are zone-sized in the finite log), but
 * the reclaim I/O pattern differs: the layer streams the whole
 * victim zone in one sequential read — one seek — rather than
 * seeking to each live extent, then rewrites the survivors at the
 * frontier and RESETs the zone. Ties on live data break toward
 * the older zone, then the lower index, mirroring SMORE's
 * preference for stable zones.
 */
std::optional<std::uint32_t>
zoneGranularScan(const SegmentStateView &view)
{
    std::uint32_t victim = 0;
    SectorCount best = view.segmentSectors;
    std::uint64_t best_age = 0;
    bool found = false;
    for (std::uint32_t i = 0; i < view.segments.size(); ++i) {
        const SegmentInfo &segment = view.segments[i];
        if (segment.free || segment.open)
            continue;
        const SectorCount live = segment.live;
        if (live >= view.segmentSectors)
            continue;
        const std::uint64_t age = view.now - segment.lastWrite;
        if (!found || live < best ||
            (live == best && age > best_age)) {
            best = live;
            best_age = age;
            victim = i;
            found = true;
        }
    }
    if (!found)
        return std::nullopt;
    return victim;
}

} // namespace

std::optional<std::uint32_t>
selectVictim(CleaningPolicyKind kind, const SegmentStateView &view)
{
    switch (kind) {
    case CleaningPolicyKind::Greedy:
        return greedyScan(view);
    case CleaningPolicyKind::CostBenefit:
        // 64-bit words while the products fit, which is every
        // replay short of about 2^64 / 2S^2 appends, and 128-bit
        // words otherwise; both widths pick the same victim.
        return productsFit64(view)
                   ? costBenefitScan<std::uint64_t>(view)
                   : costBenefitScan<unsigned __int128>(view);
    case CleaningPolicyKind::ZoneGranular:
        return zoneGranularScan(view);
    }
    fatal("selectVictim: unknown cleaning policy kind");
}

} // namespace logseek::stl::gc
