// Report digests: the SHA-1 of every report body the CLIs and rdd print,
// of the pipeline's JSON report and of the model's canonical signature,
// over a fixed corpus of generated networks. A change that alters a byte
// of any report fails here, and the change must then update the digest in
// the same commit and say why. One test per network keeps each shard
// short at `ctest -j4`.
//
// Each report is built the way rdd builds it for a resident fleet: one
// analysis::Context per network, the default rule set, and the default
// request (no endpoint pair, no injected prefixes, simulator seed 7,
// automatic stop, no event log). The reachability and headerspace pair
// reports take one fixed pair per network. No corpus network declares an
// `rd-intent`, so the symbolic no-pair digest pins the "nothing to verify"
// text. The networks are the generators' configs
// re-parsed in memory, so a finding cites its router's hostname where a
// config directory's would cite the file name.
//
// Besides the archetypes, the corpus plants one defect of each
// redistribution-safety kind (RD060-RD064) into a small fleet network, so
// the dataflow's findings reach pinned bytes.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "analysis/rules.h"
#include "graph/instances.h"
#include "model/network.h"
#include "pipeline/pipeline.h"
#include "serve/queries.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "synth/fleet.h"
#include "synth/mutate.h"
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
  const char* pipeline;  // pipeline::analyze_network's JSON
  const char* signature;  // pipeline::network_signature: the model build
  const char* intents;    // reachability_query --symbolic, no pair
  const char* pair_reachability;  // the pair below, fixpoint mode
  const char* pair_headerspace;   // the pair below, header-space mode
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

/// `generate_fleet(1)`, generated once per process.
const synth::Fleet& fleet() {
  static const synth::Fleet f = synth::generate_fleet(1);
  return f;
}

/// The first `generate_fleet(1)` network under 120 routers that accepts a
/// `kind` plant at injection seed 1, planted.
template <synth::DefectKind kind>
synth::SynthNetwork planted() {
  for (const auto& net : fleet().networks) {
    if (net.configs.size() >= 120) continue;
    synth::SynthNetwork copy = net;
    if (synth::inject_defect(copy, kind, 1)) return copy;
  }
  ADD_FAILURE() << "no small fleet network accepts "
                << synth::defect_rule_id(kind);
  return {};
}

const Golden kCorpus[] = {
    {"enterprise", enterprise,
     /*audit=*/"e8b7d5d7bc8b2a4a857d6830646261122a833098",
     /*whatif=*/"dbaffaf3f88f5c5d9a5d6e3f5752139e565cfa17",
     /*lint_text=*/"fe54f9db28ada30c02e2eca09e438fa0e1baea42",
     /*lint_json=*/"24bce9443c53f1436ddac2ba1da283a0cfab93ca",
     /*lint_sarif=*/"66fd6501a8d5a2e6050cc6dab8ce35628368edfa",
     /*reachability=*/"51d3fb13c2b4c7e54a48d5a2aa0c21a3d8e5fed8",
     /*simulate=*/"4be9514c5454514590e4011e8127c83016572667",
     /*pipeline=*/"5f6b49cee0054fa4ed85c6683202f52b5da46426",
     /*signature=*/"b8fd8a611ce07cc7853f675c1e383c67a9870bcb",
     /*intents=*/"92db9a382bd11828f5a6dba7cea1d905da224aa2",
     /*pair_reachability=*/"c67d422171413de68e44c369504491758b1f75e9",
     /*pair_headerspace=*/"3e76be772ee8ce219a7707ca5403842c89ed63ef"},
    {"managed1", [] { return managed(1); },
     /*audit=*/"3716341a44b022296f30aed460345d89f424559d",
     /*whatif=*/"86240325c880d39e63bf78f7536cb0693f7c0908",
     /*lint_text=*/"3e133674228e49d1d53cac63a259b92935ecf297",
     /*lint_json=*/"b0ccc07876715b274e792b5516acbddf0398e867",
     /*lint_sarif=*/"5097bcc01a8841470b087936fe1764f48a32164e",
     /*reachability=*/"99824c1b4ae0e804ee5f6e1fd652229d87bf50ce",
     /*simulate=*/"994af73c8fa097381ebc48fe71c5234c71dde4e1",
     /*pipeline=*/"d6c99087cf8dfed921b91a55c5bc664053fe6dc6",
     /*signature=*/"7e1bd3ccbe93cfe2198beee9743e7e1d2c0df916",
     /*intents=*/"92db9a382bd11828f5a6dba7cea1d905da224aa2",
     /*pair_reachability=*/"61a1df097d5c87b371d1bad702aef1d5bfeb949c",
     /*pair_headerspace=*/"7f5e06c70add8f0ee01fa90f19104e5e56bdd3ac"},
    {"managed2", [] { return managed(2); },
     /*audit=*/"44fc08a5df4f6b8bbdfc06cb56b9d0dbe9b41bfd",
     /*whatif=*/"7815ab78f4c4b62d04205b6a10daeb51306e35af",
     /*lint_text=*/"080511ccbca5d4e15f5e62e6a763fba73dfaecb9",
     /*lint_json=*/"a35583b1aa28f84c82897ab1e23a6325b99ada17",
     /*lint_sarif=*/"09312af0c3df344157a1f2c28b8fa25e49421d68",
     /*reachability=*/"b34858d893cd468ab675b16050833d42e3c52b86",
     /*simulate=*/"4fe78cb76bda38bbb5499058d888a22bae65799a",
     /*pipeline=*/"fff96214bd95f881c59db6b0febc0c007a5442fd",
     /*signature=*/"a324efa3748e25289c400acba12058c09e163ab3",
     /*intents=*/"92db9a382bd11828f5a6dba7cea1d905da224aa2",
     /*pair_reachability=*/"e83afc0ae882ee5fb7958dcccf994569e537b8d1",
     /*pair_headerspace=*/"2097963011a886c600d2bca7aa86936eeba0f25c"},
    {"managed3", [] { return managed(3); },
     /*audit=*/"6a7f0fe28b6b14d964867783770219e91543336b",
     /*whatif=*/"1bde3b32cb5d4906c0dcc4d83fec12a7eebfc3c9",
     /*lint_text=*/"715c375bce083b6970122c4d41285f9dc6456a0c",
     /*lint_json=*/"8d7288ce6a33690fe5fbee0801777b1b85f4f968",
     /*lint_sarif=*/"6a1460b5171c51345cae8c415da966a5588c7dbb",
     /*reachability=*/"90019b1291425e22357d7867bfb2de703e15112f",
     /*simulate=*/"1074c68c021959ce7966c73c54c7a032f1754e81",
     /*pipeline=*/"c92808bf4494628775f8892aedff9598a51266fa",
     /*signature=*/"c7ad30312cc4a35713dd5837bdbd76e2d86b64b0",
     /*intents=*/"92db9a382bd11828f5a6dba7cea1d905da224aa2",
     /*pair_reachability=*/"887dcc02932f0252df24a4262c8d8ce7bc703c1b",
     /*pair_headerspace=*/"7defb523cf47d6f422f49ea05cc1af7df6048f5f"},
    {"net15", [] { return synth::make_net15(); },
     /*audit=*/"c6da38b389271639e0b1441b83a9edcb7b6695f8",
     /*whatif=*/"fc45afb3aaa07055a23700991e5d8eec1bbba939",
     /*lint_text=*/"b8c520c473ff63a7ba07f5f11a011660cc3501d1",
     /*lint_json=*/"ddc3b52ef6b83206293e3844f8edfc8a13b87b9d",
     /*lint_sarif=*/"ab2f762c96b3076992a34ec089a993a55e6fefe5",
     /*reachability=*/"76faf7e3169faf3d285860dee226ea89989573ea",
     /*simulate=*/"071e6eeb8ede7ad0704f3112ebc5aaa23abe8682",
     /*pipeline=*/"8951052ece48a6b8bde1302e337121c2a2cd82aa",
     /*signature=*/"8ae3069d10cb14c1379233379d616b586f4d1559",
     /*intents=*/"92db9a382bd11828f5a6dba7cea1d905da224aa2",
     /*pair_reachability=*/"33265a3237db20cb39e1689ad2fffc10808e64ea",
     /*pair_headerspace=*/"01cb5460f3283893bd61cb5bc3192bc35d434dcb"},
    {"ent0_rd060", planted<synth::DefectKind::kRedistributionLoop>,
     /*audit=*/"cd065318d0f8b2c9a0a69dec0e6328bb11659ede",
     /*whatif=*/"553474699cbdcc6b1fd5216bb59e7ad8a756fc04",
     /*lint_text=*/"f9e53e075ef54b07275b8a72a34df78ab6df8f4a",
     /*lint_json=*/"8d63d4f679f0e2fd80d4584c2c72b981508f0c91",
     /*lint_sarif=*/"b53bfaf02cc24e41504f90800fa23f2bbcc0b98c",
     /*reachability=*/"31398bf44a9ff6871512d0ec08a9beb5a6e72d7d",
     /*simulate=*/"cb24a9b7e9d32d5cbf24d5e8e27510c9075cd579",
     /*pipeline=*/"c923cb1f589b933d55899cca2ec2966c07cd1093",
     /*signature=*/"18d0186cec82e65c5a90c330f3f62cc06361e32c",
     /*intents=*/"92db9a382bd11828f5a6dba7cea1d905da224aa2",
     /*pair_reachability=*/"57aaaaf5dff15d8bc42d76445d7a7d987d32b775",
     /*pair_headerspace=*/"4fc39a9084e5d5a426ea750c1d90ab848e1fe2a2"},
    {"ent0_rd061", planted<synth::DefectKind::kMetricLoss>,
     /*audit=*/"1ddd8e6277312908582df5c076e8241ec8477171",
     /*whatif=*/"5318e7c2dc8f1eb4ae10e447c021e3fe6a321770",
     /*lint_text=*/"07e4aeb5d60f4fa0a34f744f7e3f9f6e99b8a55d",
     /*lint_json=*/"094eac3289e4ddcc4d6b91273103545a359599b7",
     /*lint_sarif=*/"b5d057f486ceeb31f328d9bab429bd6900a7220c",
     /*reachability=*/"99616165da935fc5aa00ea7680e464ac6a2bdc9d",
     /*simulate=*/"52d3026b7de2ecba8492356933663a2e04fc75b9",
     /*pipeline=*/"ed418cedfb810978e749b87c4e49e3c1c3853cdd",
     /*signature=*/"c4cdbc57e8b3c5c314a3d32359e4f747eb664677",
     /*intents=*/"92db9a382bd11828f5a6dba7cea1d905da224aa2",
     /*pair_reachability=*/"57aaaaf5dff15d8bc42d76445d7a7d987d32b775",
     /*pair_headerspace=*/"4fc39a9084e5d5a426ea750c1d90ab848e1fe2a2"},
    {"ent4_rd062", planted<synth::DefectKind::kDistanceInversion>,
     /*audit=*/"fc501e83ba39a3b0d5bd89dce33ee15386fa68c1",
     /*whatif=*/"1c7c0a45efbd6876be1a6ac4813cf6bb14ee8023",
     /*lint_text=*/"6c1f25f1d8fd85739d3c286ab3e4feadf9d49807",
     /*lint_json=*/"4c0d9816f82357a17c076a0a5f1ebebe7cc069d1",
     /*lint_sarif=*/"706efb640c62757a197413b0d561ffa254ae4a78",
     /*reachability=*/"4c060df75bb5eee38936409f965cdaf53a049436",
     /*simulate=*/"619d0d2f040a18da226292ce39223e38c69ee51c",
     /*pipeline=*/"843427a4517d81f99df96b98dce0dc50ecd09d27",
     /*signature=*/"9eb73e35c0e7e55a2e459ec5ecdbc13b3eca0672",
     /*intents=*/"92db9a382bd11828f5a6dba7cea1d905da224aa2",
     /*pair_reachability=*/"c0d21b7e16262baa198ce3b25ddf8ecbaa5d3a64",
     /*pair_headerspace=*/"fc39b8121d5977e24669b3fe175fbe0e6c9c8c6f"},
    {"ent0_rd063", planted<synth::DefectKind::kUnfilteredMutual>,
     /*audit=*/"b5484a3b6e8c12d7ff6e4eb7d04eb9fd5c1f7b39",
     /*whatif=*/"5318e7c2dc8f1eb4ae10e447c021e3fe6a321770",
     /*lint_text=*/"9da83a2b2558386bc5d948f682d2d8567be4e8c9",
     /*lint_json=*/"d027fb95933a4d102447a172a9a6d291e7b14bed",
     /*lint_sarif=*/"e887204c1dfa3cec523f2abf7626f2dccbc0a74b",
     /*reachability=*/"ecfb9c04a991ee7fc34dbbc1959399e3891d6218",
     /*simulate=*/"83138cca798f7ae732e603c8059a9cb3b4ccd177",
     /*pipeline=*/"6ce9f80fb919b81c84280ad49e8fd954aeebbf21",
     /*signature=*/"090ee246653473bce224d6e2077a59ad5ca5923a",
     /*intents=*/"92db9a382bd11828f5a6dba7cea1d905da224aa2",
     /*pair_reachability=*/"57aaaaf5dff15d8bc42d76445d7a7d987d32b775",
     /*pair_headerspace=*/"4fc39a9084e5d5a426ea750c1d90ab848e1fe2a2"},
    {"ent0_rd064", planted<synth::DefectKind::kSinglePointRedistribution>,
     /*audit=*/"03131caa9a653a7b0b6d83debb6117232badcac5",
     /*whatif=*/"553474699cbdcc6b1fd5216bb59e7ad8a756fc04",
     /*lint_text=*/"151ad1ee0d31ff1a02e09810e36316280206c59d",
     /*lint_json=*/"f3740085c2364f59ce932a073eddfc3e8a5ddaf0",
     /*lint_sarif=*/"1da6e82c13c1c363a77c1ccc12986573ebace441",
     /*reachability=*/"e94c5ebad60c3917d91b873d9328ec97fd4d1704",
     /*simulate=*/"0dabc2f83400538ff7af601e4b217640d5836fde",
     /*pipeline=*/"60fd5c9004a61257508a9f78060729f70f4a3fa0",
     /*signature=*/"decb55bc65611b5b661116d0d8e068f3b151f858",
     /*intents=*/"92db9a382bd11828f5a6dba7cea1d905da224aa2",
     /*pair_reachability=*/"57aaaaf5dff15d8bc42d76445d7a7d987d32b775",
     /*pair_headerspace=*/"4fc39a9084e5d5a426ea750c1d90ab848e1fe2a2"},
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
  EXPECT_EQ(
      util::Sha1::hex(pipeline::analyze_network(golden.name, network).json),
      golden.pipeline)
      << "pipeline report";
  EXPECT_EQ(util::Sha1::hex(pipeline::network_signature(network)),
            golden.signature)
      << "network signature";
  serve::ReachabilityRequest intents;
  intents.symbolic = true;
  EXPECT_EQ(digest(serve::reachability_report(ctx, intents)), golden.intents)
      << "reachability --symbolic, no pair";

  // The pair: the first and the last interface address that a routing
  // instance covers, in interface order.
  std::vector<std::string> attached;
  for (const auto& itf : network.interfaces()) {
    if (itf.address &&
        serve::instance_attached_to(network, ig.set, *itf.address) >= 0) {
      attached.push_back(itf.address->to_string());
    }
  }
  ASSERT_FALSE(attached.empty());
  const auto pair = [&](bool symbolic) {
    serve::ReachabilityRequest request;
    request.symbolic = symbolic;
    request.source = attached.front();
    request.destination = attached.back();
    return digest(serve::reachability_report(ctx, request));
  };
  EXPECT_EQ(pair(false), golden.pair_reachability)
      << "reachability " << attached.front() << " " << attached.back();
  EXPECT_EQ(pair(true), golden.pair_headerspace)
      << "headerspace " << attached.front() << " " << attached.back();
}

INSTANTIATE_TEST_SUITE_P(Corpus, ReportDigests, ::testing::ValuesIn(kCorpus),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace rd
