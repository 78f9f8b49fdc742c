#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ip/ipv4.h"
#include "ip/prefix_trie.h"

namespace rd::ip {
namespace {

// --- Ipv4Address ------------------------------------------------------------

TEST(Ipv4Address, ParsesDottedQuad) {
  const auto a = Ipv4Address::parse("66.251.75.144");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->value(), 0x42FB4B90u);
}

TEST(Ipv4Address, ParsesExtremes) {
  EXPECT_EQ(Ipv4Address::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(Ipv4Address::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
}

TEST(Ipv4Address, RejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse(""));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5"));
  EXPECT_FALSE(Ipv4Address::parse("256.1.1.1"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.x"));
  EXPECT_FALSE(Ipv4Address::parse("1..2.3"));
  EXPECT_FALSE(Ipv4Address::parse("01.2.3.4"));  // ambiguous leading zero
  EXPECT_FALSE(Ipv4Address::parse("-1.2.3.4"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4 "));
}

TEST(Ipv4Address, RoundTripsFormatting) {
  for (const char* text : {"0.0.0.0", "10.0.0.1", "192.168.255.254",
                           "255.255.255.255", "66.253.160.67"}) {
    EXPECT_EQ(Ipv4Address::parse(text)->to_string(), text);
  }
}

TEST(Ipv4Address, OrdersNumerically) {
  EXPECT_LT(*Ipv4Address::parse("9.255.255.255"),
            *Ipv4Address::parse("10.0.0.0"));
  EXPECT_LT(*Ipv4Address::parse("10.0.0.0"),
            *Ipv4Address::parse("192.168.0.0"));
}

// --- Netmask ----------------------------------------------------------------

TEST(Netmask, ParsesContiguousMasks) {
  EXPECT_EQ(Netmask::parse("255.255.255.252")->length(), 30);
  EXPECT_EQ(Netmask::parse("255.255.255.128")->length(), 25);
  EXPECT_EQ(Netmask::parse("255.0.0.0")->length(), 8);
  EXPECT_EQ(Netmask::parse("0.0.0.0")->length(), 0);
  EXPECT_EQ(Netmask::parse("255.255.255.255")->length(), 32);
}

TEST(Netmask, RejectsNonContiguous) {
  EXPECT_FALSE(Netmask::parse("255.0.255.0"));
  EXPECT_FALSE(Netmask::parse("0.255.0.0"));
  EXPECT_FALSE(Netmask::parse("255.255.255.253"));
}

TEST(Netmask, ParsesWildcards) {
  EXPECT_EQ(Netmask::parse_wildcard("0.0.0.3")->length(), 30);
  EXPECT_EQ(Netmask::parse_wildcard("0.0.0.127")->length(), 25);
  EXPECT_EQ(Netmask::parse_wildcard("0.255.255.255")->length(), 8);
  EXPECT_EQ(Netmask::parse_wildcard("255.255.255.255")->length(), 0);
  EXPECT_FALSE(Netmask::parse_wildcard("0.0.3.0"));
}

TEST(Netmask, FormatsBothNotations) {
  const auto m = Netmask::from_length(30);
  EXPECT_EQ(m.to_string(), "255.255.255.252");
  EXPECT_EQ(m.to_wildcard_string(), "0.0.0.3");
}

TEST(Netmask, EveryLengthRoundTrips) {
  for (int len = 0; len <= 32; ++len) {
    const auto m = Netmask::from_length(len);
    EXPECT_EQ(Netmask::parse(m.to_string())->length(), len);
    EXPECT_EQ(Netmask::parse_wildcard(m.to_wildcard_string())->length(), len);
  }
}

// --- Prefix -----------------------------------------------------------------

TEST(Prefix, CanonicalizesHostBits) {
  const Prefix p(*Ipv4Address::parse("10.1.2.3"), 8);
  EXPECT_EQ(p.network().to_string(), "10.0.0.0");
  EXPECT_EQ(p.to_string(), "10.0.0.0/8");
}

TEST(Prefix, ParsesSlashNotation) {
  const auto p = Prefix::parse("192.168.4.0/22");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 22);
  EXPECT_EQ(p->network().to_string(), "192.168.4.0");
  EXPECT_FALSE(Prefix::parse("192.168.4.0"));
  EXPECT_FALSE(Prefix::parse("192.168.4.0/33"));
  EXPECT_FALSE(Prefix::parse("x/8"));
}

TEST(Prefix, ParseStrictRejectsHostBits) {
  const auto ok = Prefix::parse_strict("10.0.0.0/8");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->to_string(), "10.0.0.0/8");
  // The lenient parse would silently mask this to 10.0.0.0/8.
  EXPECT_FALSE(Prefix::parse_strict("10.0.0.5/8"));
  EXPECT_FALSE(Prefix::parse_strict("192.168.4.1/22"));
  // Malformed inputs fail the same way as Prefix::parse.
  EXPECT_FALSE(Prefix::parse_strict("10.0.0.0"));
  EXPECT_FALSE(Prefix::parse_strict("10.0.0.0/33"));
  EXPECT_FALSE(Prefix::parse_strict("x/8"));
  // /32 and /0 edge cases: every address is canonical at /32; only 0.0.0.0
  // is canonical at /0.
  EXPECT_TRUE(Prefix::parse_strict("10.1.2.3/32"));
  EXPECT_TRUE(Prefix::parse_strict("0.0.0.0/0"));
  EXPECT_FALSE(Prefix::parse_strict("10.0.0.0/0"));
}

TEST(Prefix, MakeStrictMirrorsParseStrict) {
  const auto addr = *Ipv4Address::parse("10.1.2.3");
  EXPECT_FALSE(Prefix::make_strict(addr, 8));
  const auto host = Prefix::make_strict(addr, 32);
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->to_string(), "10.1.2.3/32");
  const auto net = Prefix::make_strict(*Ipv4Address::parse("10.0.0.0"), 8);
  ASSERT_TRUE(net.has_value());
  EXPECT_EQ(net->to_string(), "10.0.0.0/8");
}

TEST(Prefix, Containment) {
  const Prefix big = *Prefix::parse("10.0.0.0/8");
  const Prefix small = *Prefix::parse("10.5.0.0/16");
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
  EXPECT_TRUE(big.contains(*Ipv4Address::parse("10.255.0.1")));
  EXPECT_FALSE(big.contains(*Ipv4Address::parse("11.0.0.0")));
  EXPECT_TRUE(big.contains(big));
}

TEST(Prefix, Overlap) {
  EXPECT_TRUE(Prefix::parse("10.0.0.0/8")->overlaps(*Prefix::parse("10.1.0.0/16")));
  EXPECT_TRUE(Prefix::parse("10.1.0.0/16")->overlaps(*Prefix::parse("10.0.0.0/8")));
  EXPECT_FALSE(
      Prefix::parse("10.0.0.0/16")->overlaps(*Prefix::parse("10.1.0.0/16")));
}

TEST(Prefix, SizeAndLastAddress) {
  EXPECT_EQ(Prefix::parse("10.0.0.0/30")->size(), 4u);
  EXPECT_EQ(Prefix::parse("0.0.0.0/0")->size(), 1ull << 32);
  EXPECT_EQ(Prefix::parse("10.0.0.0/30")->last_address().to_string(),
            "10.0.0.3");
}

TEST(Prefix, ParentAndBuddy) {
  const Prefix p = *Prefix::parse("10.0.2.0/24");
  EXPECT_EQ(p.parent().to_string(), "10.0.2.0/23");
  EXPECT_EQ(p.buddy().to_string(), "10.0.3.0/24");
  EXPECT_EQ(p.buddy().buddy(), p);
  const Prefix root = *Prefix::parse("0.0.0.0/0");
  EXPECT_EQ(root.parent(), root);
  EXPECT_EQ(root.buddy(), root);
}

TEST(Prefix, HostPrefix) {
  const Prefix p = Prefix::host(*Ipv4Address::parse("1.2.3.4"));
  EXPECT_EQ(p.length(), 32);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_TRUE(p.contains(*Ipv4Address::parse("1.2.3.4")));
  EXPECT_FALSE(p.contains(*Ipv4Address::parse("1.2.3.5")));
}

TEST(Rfc1918, ClassifiesPrivateSpace) {
  EXPECT_TRUE(is_rfc1918(*Ipv4Address::parse("10.1.2.3")));
  EXPECT_TRUE(is_rfc1918(*Ipv4Address::parse("172.16.0.1")));
  EXPECT_TRUE(is_rfc1918(*Ipv4Address::parse("172.31.255.255")));
  EXPECT_TRUE(is_rfc1918(*Ipv4Address::parse("192.168.0.1")));
  EXPECT_FALSE(is_rfc1918(*Ipv4Address::parse("172.32.0.0")));
  EXPECT_FALSE(is_rfc1918(*Ipv4Address::parse("11.0.0.0")));
  EXPECT_FALSE(is_rfc1918(*Ipv4Address::parse("192.169.0.0")));
}

TEST(PrivateAsn, Range) {
  EXPECT_TRUE(is_private_asn(64512));
  EXPECT_TRUE(is_private_asn(65534));
  EXPECT_FALSE(is_private_asn(64511));
  EXPECT_FALSE(is_private_asn(65535));
  EXPECT_FALSE(is_private_asn(7018));
}

// --- PrefixTrie -------------------------------------------------------------

TEST(PrefixTrie, ExactInsertAndFind) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 1);
  trie.insert(*Prefix::parse("10.1.0.0/16"), 2);
  EXPECT_EQ(trie.size(), 2u);
  ASSERT_NE(trie.find(*Prefix::parse("10.0.0.0/8")), nullptr);
  EXPECT_EQ(*trie.find(*Prefix::parse("10.0.0.0/8")), 1);
  EXPECT_EQ(*trie.find(*Prefix::parse("10.1.0.0/16")), 2);
  EXPECT_EQ(trie.find(*Prefix::parse("10.0.0.0/9")), nullptr);
}

TEST(PrefixTrie, OverwriteKeepsSize) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 1);
  trie.insert(*Prefix::parse("10.0.0.0/8"), 7);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(*trie.find(*Prefix::parse("10.0.0.0/8")), 7);
}

TEST(PrefixTrie, LongestMatch) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("0.0.0.0/0"), 0);
  trie.insert(*Prefix::parse("10.0.0.0/8"), 8);
  trie.insert(*Prefix::parse("10.1.0.0/16"), 16);
  EXPECT_EQ(*trie.longest_match(*Ipv4Address::parse("10.1.2.3")), 16);
  EXPECT_EQ(*trie.longest_match(*Ipv4Address::parse("10.2.0.0")), 8);
  EXPECT_EQ(*trie.longest_match(*Ipv4Address::parse("11.0.0.0")), 0);
}

TEST(PrefixTrie, LongestMatchWithoutDefault) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 8);
  EXPECT_EQ(trie.longest_match(*Ipv4Address::parse("11.0.0.0")), nullptr);
}

TEST(PrefixTrie, Covers) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 1);
  EXPECT_TRUE(trie.covers(*Prefix::parse("10.1.0.0/16")));
  EXPECT_TRUE(trie.covers(*Prefix::parse("10.0.0.0/8")));
  EXPECT_FALSE(trie.covers(*Prefix::parse("11.0.0.0/16")));
  // A /4 above the stored /8 is not covered.
  EXPECT_FALSE(trie.covers(*Prefix::parse("0.0.0.0/4")));
}

TEST(PrefixTrie, ForEachVisitsInOrder) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("192.168.0.0/16"), 3);
  trie.insert(*Prefix::parse("10.0.0.0/8"), 1);
  trie.insert(*Prefix::parse("10.128.0.0/9"), 2);
  std::vector<std::string> seen;
  trie.for_each([&](const Prefix& p, const int&) {
    seen.push_back(p.to_string());
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"10.0.0.0/8", "10.128.0.0/9",
                                            "192.168.0.0/16"}));
}

TEST(PrefixTrie, ForEachMatchVisitsAllContainingPrefixes) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("0.0.0.0/0"), 0);
  trie.insert(*Prefix::parse("10.0.0.0/8"), 8);
  trie.insert(*Prefix::parse("10.1.0.0/16"), 16);
  trie.insert(*Prefix::parse("10.2.0.0/16"), 99);  // does not contain probe
  std::vector<int> seen;
  trie.for_each_match(*Ipv4Address::parse("10.1.2.3"),
                      [&](const int& v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{0, 8, 16}));  // shortest to longest
}

TEST(PrefixTrie, ForEachMatchNoMatches) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 8);
  std::size_t calls = 0;
  trie.for_each_match(*Ipv4Address::parse("11.0.0.0"),
                      [&](const int&) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

TEST(PrefixTrie, HostRoutes) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::host(*Ipv4Address::parse("1.2.3.4")), 42);
  EXPECT_EQ(*trie.longest_match(*Ipv4Address::parse("1.2.3.4")), 42);
  EXPECT_EQ(trie.longest_match(*Ipv4Address::parse("1.2.3.5")), nullptr);
}

}  // namespace
}  // namespace rd::ip
