#include "mem/main_memory.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/log.hh"
#include "snapshot/snapshot.hh"

namespace stashsim
{

MainMemory::MainMemory()
{
    // Typical quick-scale working sets touch a few hundred lines;
    // reserving up front keeps the hot-path inserts rehash-free.
    lines.reserve(64 * 64);
}

LineData
MainMemory::readLine(PhysAddr line_pa) const
{
    sim_assert(line_pa % lineBytes == 0);
    auto it = lines.find(line_pa);
    return it == lines.end() ? LineData{} : it->second;
}

void
MainMemory::writeLine(PhysAddr line_pa, WordMask mask, const LineData &d)
{
    sim_assert(line_pa % lineBytes == 0);
    LineData &line = lines[line_pa];
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        if (mask & wordBit(w))
            line.w[w] = d.w[w];
    }
}

std::uint32_t
MainMemory::readWord(PhysAddr pa) const
{
    sim_assert(pa % wordBytes == 0);
    auto it = lines.find(lineBase(pa));
    return it == lines.end() ? 0 : it->second.w[lineWord(pa)];
}

void
MainMemory::writeWord(PhysAddr pa, std::uint32_t value)
{
    sim_assert(pa % wordBytes == 0);
    lines[lineBase(pa)].w[lineWord(pa)] = value;
}

void
MainMemory::snapshot(SnapshotWriter &w) const
{
    // The sparse image's contents depend only on which lines were
    // touched, never on insertion order; sorting by line address makes
    // the serialized form canonical so byte-identical simulated state
    // yields byte-identical snapshots.
    std::vector<std::pair<PhysAddr, LineData>> all(lines.begin(),
                                                   lines.end());
    std::sort(all.begin(), all.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    w.u64(all.size());
    for (const auto &[pa, line] : all) {
        w.u64(pa);
        for (unsigned i = 0; i < wordsPerLine; ++i)
            w.u32(line.w[i]);
    }
}

void
MainMemory::restore(SnapshotReader &r)
{
    lines.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const PhysAddr pa = r.u64();
        r.require(pa % lineBytes == 0, "unaligned line address");
        LineData line;
        for (unsigned j = 0; j < wordsPerLine; ++j)
            line.w[j] = r.u32();
        lines.emplace(pa, line);
    }
}

std::size_t
MainMemory::linesTouched() const
{
    return lines.size();
}

} // namespace stashsim
