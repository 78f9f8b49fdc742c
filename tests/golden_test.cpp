// Report digests: the SHA-1 of every report body the CLIs and rdd print,
// over a fixed corpus of generated networks. A change that alters a byte
// of any report fails here, and the change must then update the digest in
// the same commit and say why. One test per network keeps each shard
// short at `ctest -j4`.
//
// Each report is built the way rdd builds it for a resident fleet: one
// analysis::Context per network, the default rule set, and the default
// request (no endpoint pair, no injected prefixes, simulator seed 7,
// automatic stop, no event log). The networks are the generators' configs
// re-parsed in memory, so a finding cites its router's hostname where a
// config directory's would cite the file name.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "analysis/rules.h"
#include "graph/instances.h"
#include "model/network.h"
#include "serve/queries.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace rd {
namespace {

/// One network of the corpus and the pinned SHA-1 of each of its reports.
struct Golden {
  const char* name;
  synth::SynthNetwork (*make)();
  const char* audit;
  const char* whatif;
  const char* lint_text;
  const char* lint_json;
  const char* lint_sarif;
  const char* reachability;
  const char* simulate;
};

synth::SynthNetwork managed(std::uint64_t seed) {
  synth::ManagedEnterpriseParams params;
  params.seed = seed;
  return synth::make_managed_enterprise(params);
}

synth::SynthNetwork enterprise() {
  synth::TextbookEnterpriseParams params;
  params.seed = 1;
  return synth::make_textbook_enterprise(params);
}

const Golden kCorpus[] = {
    {"enterprise", enterprise,
     /*audit=*/"e8b7d5d7bc8b2a4a857d6830646261122a833098",
     /*whatif=*/"dbaffaf3f88f5c5d9a5d6e3f5752139e565cfa17",
     /*lint_text=*/"fe54f9db28ada30c02e2eca09e438fa0e1baea42",
     /*lint_json=*/"24bce9443c53f1436ddac2ba1da283a0cfab93ca",
     /*lint_sarif=*/"66fd6501a8d5a2e6050cc6dab8ce35628368edfa",
     /*reachability=*/"51d3fb13c2b4c7e54a48d5a2aa0c21a3d8e5fed8",
     /*simulate=*/"4be9514c5454514590e4011e8127c83016572667"},
    {"managed1", [] { return managed(1); },
     /*audit=*/"3716341a44b022296f30aed460345d89f424559d",
     /*whatif=*/"86240325c880d39e63bf78f7536cb0693f7c0908",
     /*lint_text=*/"3e133674228e49d1d53cac63a259b92935ecf297",
     /*lint_json=*/"b0ccc07876715b274e792b5516acbddf0398e867",
     /*lint_sarif=*/"5097bcc01a8841470b087936fe1764f48a32164e",
     /*reachability=*/"99824c1b4ae0e804ee5f6e1fd652229d87bf50ce",
     /*simulate=*/"994af73c8fa097381ebc48fe71c5234c71dde4e1"},
    {"managed2", [] { return managed(2); },
     /*audit=*/"44fc08a5df4f6b8bbdfc06cb56b9d0dbe9b41bfd",
     /*whatif=*/"7815ab78f4c4b62d04205b6a10daeb51306e35af",
     /*lint_text=*/"080511ccbca5d4e15f5e62e6a763fba73dfaecb9",
     /*lint_json=*/"a35583b1aa28f84c82897ab1e23a6325b99ada17",
     /*lint_sarif=*/"09312af0c3df344157a1f2c28b8fa25e49421d68",
     /*reachability=*/"b34858d893cd468ab675b16050833d42e3c52b86",
     /*simulate=*/"4fe78cb76bda38bbb5499058d888a22bae65799a"},
    {"managed3", [] { return managed(3); },
     /*audit=*/"6a7f0fe28b6b14d964867783770219e91543336b",
     /*whatif=*/"1bde3b32cb5d4906c0dcc4d83fec12a7eebfc3c9",
     /*lint_text=*/"715c375bce083b6970122c4d41285f9dc6456a0c",
     /*lint_json=*/"8d7288ce6a33690fe5fbee0801777b1b85f4f968",
     /*lint_sarif=*/"6a1460b5171c51345cae8c415da966a5588c7dbb",
     /*reachability=*/"90019b1291425e22357d7867bfb2de703e15112f",
     /*simulate=*/"1074c68c021959ce7966c73c54c7a032f1754e81"},
    {"net15", [] { return synth::make_net15(); },
     /*audit=*/"c6da38b389271639e0b1441b83a9edcb7b6695f8",
     /*whatif=*/"fc45afb3aaa07055a23700991e5d8eec1bbba939",
     /*lint_text=*/"b8c520c473ff63a7ba07f5f11a011660cc3501d1",
     /*lint_json=*/"ddc3b52ef6b83206293e3844f8edfc8a13b87b9d",
     /*lint_sarif=*/"ab2f762c96b3076992a34ec089a993a55e6fefe5",
     /*reachability=*/"76faf7e3169faf3d285860dee226ea89989573ea",
     /*simulate=*/"071e6eeb8ede7ad0704f3112ebc5aaa23abe8682"},
};

void PrintTo(const Golden& golden, std::ostream* os) { *os << golden.name; }

class ReportDigests : public ::testing::TestWithParam<Golden> {};

TEST_P(ReportDigests, MatchPinned) {
  const Golden& golden = GetParam();
  const auto network =
      model::Network::build(synth::reparse(golden.make().configs));
  const auto ig = graph::InstanceGraph::build(network);
  const analysis::Context ctx(network, ig);
  const auto engine = analysis::RuleEngine::with_default_rules();
  util::ThreadPool pool(2);

  const auto digest = [](const serve::QueryResult& result) {
    return util::Sha1::hex(result.output);
  };
  const auto lint = [&](serve::LintFormat format) {
    return digest(serve::lint_report(ctx, engine, golden.name, format, pool));
  };
  EXPECT_EQ(digest(serve::audit_report(ctx, pool)), golden.audit) << "audit";
  EXPECT_EQ(digest(serve::whatif_report(network, ig, pool)), golden.whatif)
      << "whatif";
  EXPECT_EQ(lint(serve::LintFormat::kText), golden.lint_text) << "rdlint text";
  EXPECT_EQ(lint(serve::LintFormat::kJson), golden.lint_json) << "rdlint json";
  EXPECT_EQ(lint(serve::LintFormat::kSarif), golden.lint_sarif)
      << "rdlint sarif";
  EXPECT_EQ(digest(serve::reachability_report(ctx, {})), golden.reachability)
      << "reachability summary";
  EXPECT_EQ(digest(serve::simulate_report(network, ig, 7, 0, pool)),
            golden.simulate)
      << "simulate, sim seed 7";
}

INSTANTIATE_TEST_SUITE_P(Corpus, ReportDigests, ::testing::ValuesIn(kCorpus),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace rd
