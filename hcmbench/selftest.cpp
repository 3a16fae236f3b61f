// hcmbench --selftest: checks of the benchmark's own machinery.
//   - the percentile helper picks the highest quantile that still has
//     at least ten samples beyond it;
//   - the generators are stable for one seed and differ across seeds;
//   - the stage replay's message bytes equal what a live VSG call put
//     on the wire.
#include <cstdio>
#include <string>

#include "gen.hpp"
#include "workloads.hpp"

namespace hcmbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
  return v;
}

void test_percentiles() {
  std::printf("percentile helper\n");
  // 1000 samples: p99 sits at index 989 with exactly ten beyond it.
  Tail t = tail_quantile(iota_samples(1000), 0.99);
  expect(t.q == 0.99 && t.value == 989 && t.beyond == 10,
         "n=1000 reports p99 with ten samples beyond");
  // 901 samples: p99 is index floor(0.99 * 900) = 891, nine beyond,
  // so the helper falls back to p95; 902 samples give ten again.
  t = tail_quantile(iota_samples(901), 0.99);
  expect(t.q == 0.95 && t.beyond >= 10, "n=901 falls back to p95");
  t = tail_quantile(iota_samples(902), 0.99);
  expect(t.q == 0.99 && t.beyond == 10, "n=902 keeps p99");
  // 100k samples: p99.9 qualifies, but the caller asked for p99.
  t = tail_quantile(iota_samples(100'000), 0.99);
  expect(t.q == 0.99, "never reports above the requested quantile");
  t = tail_quantile(iota_samples(100'000), 1.0);
  expect(t.q == 0.999 && t.beyond >= 10, "n=100000 reaches p99.9");
  t = tail_quantile(iota_samples(15), 0.99);
  expect(t.q == 0.5, "n=15 reports only the median");
  expect(quantile_sorted(iota_samples(101), 0.5) == 50, "median of 0..100");
}

void test_generators() {
  std::printf("generators\n");
  const RpcInputs a = make_rpc_inputs(1, 2);
  const RpcInputs b = make_rpc_inputs(1, 2);
  const RpcInputs c = make_rpc_inputs(7, 2);
  expect(inputs_digest(a) == inputs_digest(b), "rpc ops stable for seed 1");
  expect(inputs_digest(a) != inputs_digest(c), "rpc ops differ for seed 7");
  std::size_t bulk = 0, status = 0;
  bool bulk_big = true;
  for (const RpcOp& op : a.ops) {
    bulk += op.cls == PayloadClass::kBulk;
    status += op.cls == PayloadClass::kStatus;
    if (op.cls == PayloadClass::kBulk) {
      bulk_big = bulk_big && op.args[1].as_bytes().size() > 16 * 1024;
    }
  }
  expect(bulk == 6 && status == 54, "class shares fixed per deck");
  expect(bulk_big, "bulk payloads exceed one 16 KB pool block");
  expect(inputs_digest(make_home_ops(1, 4)) == inputs_digest(make_home_ops(1, 4)),
         "home schedule stable for seed 1");
  expect(inputs_digest(make_home_ops(1, 4)) != inputs_digest(make_home_ops(7, 4)),
         "home schedule differs for seed 7");
  expect(make_city_targets(1, 1000, 64) == make_city_targets(1, 1000, 64) &&
             make_city_targets(1, 1000, 64) != make_city_targets(7, 1000, 64),
         "city probe targets stable per seed, differ across seeds");
  // The callee, from the lamp states the generator starts it in, gives
  // every expected reply, and twice over: the list replays in a loop.
  RpcCallee callee(a.lamps_on);
  bool match = true;
  for (int pass = 0; pass < 2; ++pass) {
    for (const RpcOp& op : a.ops) {
      match = match &&
              callee.reply(op.service, op.method, op.args) == op.expect;
    }
  }
  expect(match, "callee replies match the generator's expectations, looped");
}

void test_live_wire() {
  std::printf("stage replay vs live wire\n");
  const std::string diff = check_live_wire(make_rpc_inputs(3, 1));
  expect(diff.empty(), diff.empty() ? "every method byte-identical" : diff);
}

}  // namespace

int run_selftest() {
  test_percentiles();
  test_generators();
  test_live_wire();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures;
}

}  // namespace hcmbench
