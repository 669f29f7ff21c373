// Ablation: index slicing (QTensor's step-dependent parallelization).
//
// Contracts one p=2 <ZZ> network directly and with 2^s slices for s=1..4,
// serial and parallel. Expected: slicing adds redundant work at small widths
// (each slice repeats the shallow contractions) but the slices parallelize
// perfectly, so wall-clock drops once workers are applied — exactly the
// trade QTensor exploits across GPUs.
#include <algorithm>
#include <cstdio>

#include "common/cli.hpp"
#include "common/timer.hpp"
#include "graph/generators.hpp"
#include "qaoa/ansatz.hpp"
#include "qtensor/planner.hpp"
#include "qtensor/slicing.hpp"

using namespace qarch;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 5));
  const auto p = static_cast<std::size_t>(cli.get_int("p", 2));

  Rng rng(41);
  const auto g = graph::random_regular(10, 4, rng);
  const auto c = qaoa::build_qaoa_circuit(g, p, qaoa::MixerSpec::qnas());
  const std::vector<double> theta(c.num_params(), 0.37);
  const auto net = qtensor::expectation_zz_network(c, theta, g.edges()[0].u,
                                                   g.edges()[0].v);
  const auto plan = qtensor::plan_contraction(net);

  Timer t0;
  qtensor::ContractionResult direct;
  for (std::size_t r = 0; r < reps; ++r)
    direct = qtensor::contract(net, plan.order);
  const double direct_ms = t0.millis() / static_cast<double>(reps);
  std::printf("slicing ablation: p=%zu network, width %zu, direct %.2f ms "
              "(value %.6f)\n\n",
              p, direct.width, direct_ms, direct.value.real());

  std::printf("%-8s %-8s %-14s %-14s %-10s\n", "slices", "width",
              "serial (ms)", "8 workers (ms)", "max |err|");
  for (std::size_t s = 1; s <= 4; ++s) {
    const auto slice_vars = qtensor::choose_slice_vars(net, s);
    std::vector<qtensor::VarId> order;
    for (qtensor::VarId v : plan.order)
      if (std::find(slice_vars.begin(), slice_vars.end(), v) ==
          slice_vars.end())
        order.push_back(v);

    Timer t1;
    qtensor::ContractionResult serial;
    for (std::size_t r = 0; r < reps; ++r)
      serial = qtensor::contract_sliced(net, order, slice_vars, 1);
    const double serial_ms = t1.millis() / static_cast<double>(reps);

    Timer t2;
    qtensor::ContractionResult par;
    for (std::size_t r = 0; r < reps; ++r)
      par = qtensor::contract_sliced(net, order, slice_vars, 8);
    const double par_ms = t2.millis() / static_cast<double>(reps);

    std::printf("%-8zu %-8zu %-14.2f %-14.2f %-10.2e\n",
                std::size_t{1} << s, serial.width, serial_ms, par_ms,
                std::abs(serial.value - direct.value));
  }
  return 0;
}
