#include "mem/main_memory.hh"

#include "sim/log.hh"

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

std::size_t
MainMemory::linesTouched() const
{
    return lines.size();
}

} // namespace stashsim
