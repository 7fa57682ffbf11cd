/// Regenerates Fig. 4c: RedMulE vs 8-core SW on the TinyMLPerf AutoEncoder
/// (training step, batch B = 1), per layer and phase. Paper claims: overall
/// 2.6x speedup at B=1, with markedly larger gains in the backward pass
/// (dW has K = in_dim) and modest gains in forward (K = B = 1 starves the
/// H*(P+1) pipeline slots).
#include "bench_util.hpp"
#include "workloads/network.hpp"

using namespace redmule;
using namespace redmule::bench;

int main() {
  print_header("Fig. 4c: TinyMLPerf AutoEncoder training, B = 1, per-layer",
               "2.6x overall speedup; backward >> forward at B=1");

  // Shapes only: the lowering never reads weight values, so any seed works.
  Xoshiro256 rng(0);
  const workloads::NetworkGraph net = workloads::NetworkGraph::autoencoder(
      workloads::AutoencoderConfig{}, rng);  // 640-128^4-8-128^4-640
  const auto gemms = net.training_gemms(1);

  TablePrinter t({"Layer.phase", "M", "N", "K", "HW cycles", "SW cycles", "Speedup"});
  uint64_t hw_total = 0, sw_total = 0, hw_fw = 0, sw_fw = 0, hw_bw = 0, sw_bw = 0;
  for (const auto& ge : gemms) {
    const auto hw = run_hw(ge.shape, 13);
    const auto sw = run_sw(ge.shape, 13);
    hw_total += hw.cycles;
    sw_total += sw.cycles;
    (ge.backward() ? hw_bw : hw_fw) += hw.cycles;
    (ge.backward() ? sw_bw : sw_fw) += sw.cycles;
    t.add_row({ge.shape.name, TablePrinter::fmt_int(ge.shape.m),
               TablePrinter::fmt_int(ge.shape.n), TablePrinter::fmt_int(ge.shape.k),
               TablePrinter::fmt_int(hw.cycles), TablePrinter::fmt_int(sw.cycles),
               TablePrinter::fmt(static_cast<double>(sw.cycles) / hw.cycles, 2) + "x"});
  }
  t.print();

  std::printf("\nForward:  HW %8llu vs SW %9llu cycles -> %.2fx\n",
              (unsigned long long)hw_fw, (unsigned long long)sw_fw,
              (double)sw_fw / hw_fw);
  std::printf("Backward: HW %8llu vs SW %9llu cycles -> %.2fx\n",
              (unsigned long long)hw_bw, (unsigned long long)sw_bw,
              (double)sw_bw / hw_bw);
  std::printf("Overall:  HW %8llu vs SW %9llu cycles -> %.2fx (paper: 2.6x)\n",
              (unsigned long long)hw_total, (unsigned long long)sw_total,
              (double)sw_total / hw_total);
  return 0;
}
