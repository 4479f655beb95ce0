// Auction-site workload tests: generator invariants (cross-references,
// monotone bids, structure) and end-to-end engine queries over the
// realistic document shape, with cross-engine agreement.

#include <gtest/gtest.h>

#include "eval/core_linear_evaluator.hpp"
#include "eval/cvt_evaluator.hpp"
#include "eval/engine.hpp"
#include "eval/recursive_base.hpp"
#include "testkit/reference_edit.hpp"
#include "xml/auction.hpp"
#include "xpath/parser.hpp"

namespace gkx::eval {
namespace {

xml::Document Site(uint64_t seed = 5) {
  Rng rng(seed);
  xml::AuctionOptions options;
  options.items = 12;
  options.people = 8;
  options.open_auctions = 10;
  return xml::AuctionDocument(&rng, options);
}

TEST(AuctionGeneratorTest, TopLevelStructure) {
  xml::Document site = Site();
  Engine engine;
  auto sections = engine.Run(site, "/child::*");
  ASSERT_TRUE(sections.ok());
  EXPECT_EQ(sections->value.nodes().size(), 4u);
  auto items = engine.Run(site, "/child::items/child::item");
  ASSERT_TRUE(items.ok());
  EXPECT_EQ(items->value.nodes().size(), 12u);
  auto people = engine.Run(site, "/child::people/child::person");
  ASSERT_TRUE(people.ok());
  EXPECT_EQ(people->value.nodes().size(), 8u);
}

TEST(AuctionGeneratorTest, EveryItemHasPriceSellerCategory) {
  xml::Document site = Site();
  Engine engine;
  auto incomplete = engine.Run(
      site,
      "/descendant::item[not(child::price) or not(child::seller) or "
      "not(child::incategory)]");
  ASSERT_TRUE(incomplete.ok());
  EXPECT_TRUE(incomplete->value.nodes().empty());
}

TEST(AuctionGeneratorTest, BidsAreMonotone) {
  // Every bid is strictly below the auction's current price; the generator
  // increases amounts monotonically.
  xml::Document site = Site();
  Engine engine;
  auto violations = engine.Run(
      site, "/descendant::open_auction/child::bid[. >= "
            "following-sibling::current]");
  ASSERT_TRUE(violations.ok());
  EXPECT_TRUE(violations->value.nodes().empty());
}

TEST(AuctionGeneratorTest, SellerReferencesResolve) {
  xml::Document site = Site();
  Engine engine;
  // Seller indices are < people count (text is the person index).
  auto bad = engine.Run(site, "/descendant::seller[. >= 8]");
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(bad->value.nodes().empty());
}

TEST(AuctionGeneratorTest, DeterministicForSeed) {
  xml::Document a = Site(9);
  xml::Document b = Site(9);
  EXPECT_TRUE(testkit::ExhaustiveEquals(a, b));
  xml::Document c = Site(10);
  EXPECT_FALSE(testkit::ExhaustiveEquals(a, c));
}

TEST(AuctionQueriesTest, EnginesAgreeOnWorkload) {
  xml::Document site = Site();
  NaiveEvaluator naive;
  CvtEvaluator cvt;
  CoreLinearEvaluator linear;
  for (const char* text : {
           "/descendant::item/child::name",
           "/descendant::open_auction[not(child::bid)]",
           "/descendant::open_auction/child::bid[last()]",
           "/descendant::item[child::price > 80]",
           "/descendant::open_auction[child::bid[3]]",
           "/descendant::person[child::city]/child::name",
       }) {
    xpath::Query query = xpath::MustParse(text);
    auto expected = naive.EvaluateAtRoot(site, query);
    ASSERT_TRUE(expected.ok()) << text;
    auto from_cvt = cvt.EvaluateAtRoot(site, query);
    ASSERT_TRUE(from_cvt.ok()) << text;
    EXPECT_TRUE(expected->Equals(*from_cvt)) << text;
    auto from_linear = linear.EvaluateAtRoot(site, query);
    if (from_linear.ok()) {
      EXPECT_TRUE(expected->Equals(*from_linear)) << text;
    }
  }
}

TEST(AuctionQueriesTest, AggregatesAreConsistent) {
  xml::Document site = Site();
  Engine engine;
  auto bid_count = engine.Run(site, "count(/descendant::bid)");
  ASSERT_TRUE(bid_count.ok());
  auto last_bids =
      engine.Run(site, "count(/descendant::open_auction/child::bid[last()])");
  ASSERT_TRUE(last_bids.ok());
  auto auctions_with_bids =
      engine.Run(site, "count(/descendant::open_auction[child::bid])");
  ASSERT_TRUE(auctions_with_bids.ok());
  // One last-bid per auction that has bids.
  EXPECT_DOUBLE_EQ(last_bids->value.number(), auctions_with_bids->value.number());
  EXPECT_GE(bid_count->value.number(), last_bids->value.number());
}

}  // namespace
}  // namespace gkx::eval
