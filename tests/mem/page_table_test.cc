/**
 * @file
 * Unit tests for the page table and per-core TLB.
 */

#include <gtest/gtest.h>

#include "mem/page_table.hh"
#include "mem/tlb.hh"

namespace stashsim
{
namespace
{

TEST(PageTableTest, FirstTouchAllocatesDistinctPages)
{
    PageTable pt;
    const PhysAddr p0 = pt.translate(0x10000);
    const PhysAddr p1 = pt.translate(0x20000);
    EXPECT_NE(pageBase(p0), pageBase(p1));
    EXPECT_EQ(pt.numPages(), 2u);
}

TEST(PageTableTest, TranslationIsStable)
{
    PageTable pt;
    const PhysAddr a = pt.translate(0x12345678);
    EXPECT_EQ(pt.translate(0x12345678), a);
    EXPECT_EQ(pt.numPages(), 1u);
}

TEST(PageTableTest, OffsetWithinPagePreserved)
{
    PageTable pt;
    const PhysAddr base = pt.translate(0x5000);
    EXPECT_EQ(pt.translate(0x5004), base + 4);
    EXPECT_EQ(pt.translate(0x5ffc), pageBase(base) + 0xffc);
}

TEST(PageTableTest, PhysicalSpaceIsDisjointFromVirtual)
{
    // Physical pages start above 4 GB so VA/PA confusion traps.
    PageTable pt;
    EXPECT_GE(pt.translate(0x1000), PhysAddr{4} << 30);
}

TEST(PageTableTest, ReverseInvertsTranslate)
{
    PageTable pt;
    for (Addr va : {Addr(0x1000), Addr(0x7f000), Addr(0x12340abc)}) {
        const PhysAddr pa = pt.translate(va);
        Addr back = 0;
        ASSERT_TRUE(pt.reverse(pa, &back));
        EXPECT_EQ(back, va);
    }
}

TEST(PageTableTest, ReverseFailsForUnmapped)
{
    PageTable pt;
    Addr back;
    EXPECT_FALSE(pt.reverse(PhysAddr{5} << 30, &back));
}

TEST(TlbTest, CountsAccessesAndMisses)
{
    // Every translation is one access, whether the one-entry fast
    // path answers it (same page) or the page table does.
    PageTable pt;
    Tlb tlb(pt);
    tlb.translate(0x1000);
    tlb.translate(0x1004); // same page
    tlb.translate(0x2000); // new page
    EXPECT_EQ(tlb.accesses(), 3u);
}

TEST(TlbTest, AgreesWithPageTable)
{
    PageTable pt;
    Tlb tlb(pt);
    const PhysAddr via_tlb = tlb.translate(0x9000);
    EXPECT_EQ(via_tlb, pt.translate(0x9000));
}

} // namespace
} // namespace stashsim
