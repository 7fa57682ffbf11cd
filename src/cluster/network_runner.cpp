#include "cluster/network_runner.hpp"

#include <algorithm>

namespace redmule::cluster {

namespace {

using fp16::Float16;
using workloads::AeGemm;
using workloads::lowered_gemm;
using workloads::NetworkGraph;
using workloads::NetworkLayer;
using workloads::TiledGemmPlan;

uint32_t pad_even(uint32_t v) { return v + (v & 1u); }

/// Per-layer lowered-GEMM geometry: the one description both the executor's
/// L2 layout and the static sizing helpers are computed from, so the batch
/// runner's cluster sizing can never diverge from what a run allocates.
struct LayerGeom {
  uint32_t m = 0;        ///< GEMM output rows (out_dim, out_channels for conv)
  uint32_t n = 0;        ///< real reduction extent (in_dim / C*k*k)
  uint32_t kk = 0;       ///< real GEMM columns (batch / oh*ow)
  uint32_t in_vec = 0;   ///< activation-vector length consumed
  uint32_t out_vec = 0;  ///< activation-vector length produced
  bool conv = false;
  bool relu = false;
};

std::vector<LayerGeom> geoms_from_graph(const NetworkGraph& net, uint32_t batch) {
  std::vector<LayerGeom> geoms;
  for (const NetworkLayer& l : net.layers()) {
    LayerGeom g;
    const workloads::GemmShape s = l.forward_shape(batch);
    g.m = s.m;
    g.n = s.n;
    g.kk = s.k;
    g.in_vec = l.in_dim();
    g.out_vec = l.out_dim();
    g.conv = l.kind == NetworkLayer::Kind::kConv;
    g.relu = l.relu;
    geoms.push_back(g);
  }
  return geoms;
}

/// The autoencoder shape: a linear chain with ReLU between layers. Must
/// produce exactly what geoms_from_graph produces for
/// NetworkGraph::autoencoder, so the sizing helpers stay truthful.
std::vector<LayerGeom> geoms_from_dims(const std::vector<uint32_t>& dims,
                                       uint32_t batch) {
  REDMULE_REQUIRE(dims.size() >= 2, "a network needs at least one layer");
  std::vector<LayerGeom> geoms;
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    LayerGeom g;
    g.m = dims[l + 1];
    g.n = dims[l];
    g.kk = batch;
    g.in_vec = dims[l];
    g.out_vec = dims[l + 1];
    g.relu = l + 2 < dims.size();
    geoms.push_back(g);
  }
  return geoms;
}

/// Byte addresses of one layer's L2 regions (0 = not allocated).
struct LayerAddrs {
  uint32_t weight = 0;    ///< (m x pad_even(n))
  uint32_t wt = 0;        ///< training: W^T, (n x pad_even(m))
  uint32_t patches = 0;   ///< conv: im2col scratch, (pad_even(n) x pad_even(kk))
  uint32_t gemm_out = 0;  ///< conv: raw GEMM output, (m x pad_even(kk))
  uint32_t pre = 0;       ///< flattened pre-activation, (pad_even(out_vec) x Bp)
  uint32_t act = 0;       ///< post-ReLU activation (== pre when !relu)
  uint32_t dw = 0;        ///< training: weight gradient, (m x pad_even(n))
};

struct Layout {
  uint32_t input = 0;  ///< (pad_even(in_vec_0) x Bp)
  std::vector<LayerAddrs> layers;
  uint32_t act_t = 0;  ///< training scratch: A_l^T, (Bp x max pad_even(n))
  uint32_t dy0 = 0, dy1 = 0;  ///< training: (max pad_even(out_vec) x Bp)
  uint64_t total_bytes = 0;
};

/// Allocates every region of a run in a fixed order from \p base. With
/// base = 0 this doubles as the sizing function (total_bytes).
Layout build_layout(const std::vector<LayerGeom>& geoms, uint32_t batch,
                    bool training, uint32_t base) {
  const uint32_t bp = pad_even(batch);
  uint64_t next = base;
  auto alloc = [&next](uint64_t rows, uint64_t cols) {
    const uint64_t addr = next;
    next += (rows * cols * 2 + 3) & ~3ull;  // keep regions word-aligned
    if (next > UINT32_MAX)
      throw CapacityError("network layout exceeds the address space");
    return static_cast<uint32_t>(addr);
  };

  Layout lay;
  lay.input = alloc(pad_even(geoms.front().in_vec), bp);
  for (const LayerGeom& g : geoms) {
    LayerAddrs a;
    a.weight = alloc(g.m, pad_even(g.n));
    if (training) {
      a.wt = alloc(g.n, pad_even(g.m));
      a.dw = alloc(g.m, pad_even(g.n));
    }
    if (g.conv) {
      a.patches = alloc(pad_even(g.n), pad_even(g.kk));
      a.gemm_out = alloc(g.m, pad_even(g.kk));
    }
    a.pre = alloc(pad_even(g.out_vec), bp);
    a.act = g.relu ? alloc(pad_even(g.out_vec), bp) : a.pre;
    lay.layers.push_back(a);
  }
  if (training) {
    uint32_t max_n = 0, max_out = 0;
    for (const LayerGeom& g : geoms) {
      max_n = std::max(max_n, pad_even(g.n));
      max_out = std::max(max_out, pad_even(g.out_vec));
    }
    lay.act_t = alloc(bp, max_n);
    lay.dy0 = alloc(max_out, bp);
    lay.dy1 = alloc(max_out, bp);
  }
  lay.total_bytes = next - base;
  return lay;
}

MatrixF16 read_mat(mem::L2Memory& l2, uint32_t addr, uint32_t rows, uint32_t cols) {
  MatrixF16 m(rows, cols);
  l2.read(addr, m.data(), rows * cols * 2);
  return m;
}

void write_mat(mem::L2Memory& l2, uint32_t addr, const MatrixF16& m) {
  l2.write(addr, m.data(), static_cast<uint32_t>(m.size_bytes()));
}

void zero_region(mem::L2Memory& l2, uint32_t addr, uint32_t rows, uint32_t cols) {
  write_mat(l2, addr, MatrixF16(rows, cols));
}

/// Bias add on the *real* region of an in-memory GEMM output (the lowering
/// rule: pad columns stay exactly +0).
void apply_bias(MatrixF16& z, const std::vector<Float16>& bias, uint32_t rows,
                uint32_t real_cols) {
  for (uint32_t r = 0; r < rows; ++r)
    for (uint32_t c = 0; c < real_cols; ++c)
      z(r, c) = workloads::bias_add_f16(z(r, c), bias[r]);
}

/// ReLU from the resident pre buffer into the act buffer (the whole padded
/// region -- relu(+0) == +0, so pads are preserved).
void apply_relu(mem::L2Memory& l2, uint32_t pre_addr, uint32_t act_addr,
                uint32_t rows, uint32_t cols) {
  MatrixF16 v = read_mat(l2, pre_addr, rows, cols);
  for (size_t r = 0; r < v.rows(); ++r)
    for (size_t c = 0; c < v.cols(); ++c) v(r, c) = workloads::relu_f16(v(r, c));
  write_mat(l2, act_addr, v);
}

/// One linear layer forward on resident operands: the tiled GEMM into the
/// pre buffer, bias on the real region, ReLU into the act buffer. The ONE
/// implementation both forward() and training_step() run, so the
/// elementwise contract cannot drift between the two paths.
NetworkGemmStats run_linear_layer(Cluster& cl, RedmuleDriver& drv,
                                  TiledGemmRunner& tiled, const NetworkLayer& layer,
                                  const LayerGeom& g, const LayerAddrs& a,
                                  uint32_t cur_act, uint32_t batch, uint32_t bp,
                                  size_t l) {
  auto& l2 = cl.l2();
  NetworkGemmStats gs{
      lowered_gemm(l, AeGemm::Phase::kForward, g.m, g.n, g.kk), {}};
  const TiledGemmPlan plan = workloads::plan_tiled_gemm(
      g.m, pad_even(g.n), bp, false, drv.bytes_free(), cl.config().geometry);
  gs.tiled = tiled.run_staged({a.weight, cur_act, a.pre, 0}, plan);
  gs.tiled.macs = gs.shape.macs();  // useful MACs, not the padded grid's
  cl.sim().checkpoint();            // per-GEMM deadline/cancel poll point

  if (!layer.bias.empty()) {
    MatrixF16 z = read_mat(l2, a.pre, g.m, bp);
    apply_bias(z, layer.bias, g.m, batch);
    write_mat(l2, a.pre, z);
  }
  if (g.relu) apply_relu(l2, a.pre, a.act, pad_even(g.out_vec), bp);
  return gs;
}

/// L2 regions of a DwAccumulator: per-layer resident partials plus one
/// (dY, A^T) staging pair sized for the widest slice. With base = 0 this
/// doubles as the sizing function, exactly like build_layout.
struct AccLayout {
  std::vector<uint32_t> dw;  ///< per layer, (m x pad_even(n))
  uint32_t dy = 0;           ///< scratch, (max m x Bp)
  uint32_t act_t = 0;        ///< scratch, (Bp x max pad_even(n))
  uint64_t total_bytes = 0;
};

AccLayout build_acc_layout(const std::vector<LayerGeom>& geoms, uint32_t bp,
                           uint32_t base) {
  uint64_t next = base;
  auto alloc = [&next](uint64_t rows, uint64_t cols) {
    const uint64_t addr = next;
    next += (rows * cols * 2 + 3) & ~3ull;
    if (next > UINT32_MAX)
      throw CapacityError("gradient-reduction layout exceeds the address space");
    return static_cast<uint32_t>(addr);
  };
  AccLayout lay;
  uint32_t max_m = 0, max_np = 0;
  for (const LayerGeom& g : geoms) {
    lay.dw.push_back(alloc(g.m, pad_even(g.n)));
    max_m = std::max(max_m, g.m);
    max_np = std::max(max_np, pad_even(g.n));
  }
  lay.dy = alloc(max_m, bp);
  lay.act_t = alloc(bp, max_np);
  lay.total_bytes = next - base;
  return lay;
}

/// Shape checks shared by every training entry point (mirrored in
/// workloads::reference_training_step).
void check_training_net(const NetworkGraph& net) {
  const size_t n_layers = net.n_layers();
  REDMULE_REQUIRE(n_layers >= 1, "empty network");
  REDMULE_REQUIRE(!net.has_conv(), "training requires a pure linear chain");
  REDMULE_REQUIRE(!net.layer(n_layers - 1).relu,
                  "training expects a linear output layer (no final ReLU)");
  // Bias gradients are not part of the training lowering (the autoencoder
  // has none); training a biased layer would silently freeze its bias, so
  // reject the configuration outright.
  for (const workloads::NetworkLayer& l : net.layers())
    REDMULE_REQUIRE(l.bias.empty(), "training does not support bias layers");
}

/// The training layout for (geoms, batch) on this L2, capacity-checked.
Layout training_layout_checked(const mem::L2Memory& l2,
                               const std::vector<LayerGeom>& geoms,
                               uint32_t batch) {
  const Layout lay =
      build_layout(geoms, batch, /*training=*/true, l2.config().base_addr);
  if (lay.total_bytes > l2.config().size_bytes)
    throw CapacityError("L2 too small for the network training layout (" +
                        std::to_string(lay.total_bytes) + " bytes needed, " +
                        std::to_string(l2.config().size_bytes) + " available)");
  return lay;
}

}  // namespace

NetworkRunner::NetworkRunner(Cluster& cluster, RedmuleDriver& driver,
                             NetworkRunnerOptions opts)
    : cl_(cluster), drv_(driver), opts_(opts) {}

NetworkRunner::ForwardResult NetworkRunner::forward(const NetworkGraph& net,
                                                    const MatrixF16& x) {
  REDMULE_REQUIRE(net.n_layers() >= 1, "empty network");
  REDMULE_REQUIRE(x.rows() == net.input_dim(), "input dimension mismatch");
  const uint32_t batch = static_cast<uint32_t>(x.cols());
  REDMULE_REQUIRE(batch >= 1, "batch must be positive");
  const uint32_t bp = pad_even(batch);

  auto& l2 = cl_.l2();
  const std::vector<LayerGeom> geoms = geoms_from_graph(net, batch);
  const Layout lay =
      build_layout(geoms, batch, /*training=*/false, l2.config().base_addr);
  if (lay.total_bytes > l2.config().size_bytes)
    throw CapacityError("L2 too small for the network forward layout (" +
                        std::to_string(lay.total_bytes) + " bytes needed, " +
                        std::to_string(l2.config().size_bytes) + " available)");

  // --- Stage: weights padded, activation buffers zeroed --------------------
  write_mat(l2, lay.input, pad_to(x, pad_even(geoms.front().in_vec), bp));
  for (size_t l = 0; l < geoms.size(); ++l) {
    const LayerGeom& g = geoms[l];
    const LayerAddrs& a = lay.layers[l];
    write_mat(l2, a.weight, pad_to(net.layer(l).weight, g.m, pad_even(g.n)));
    if (g.conv) {
      zero_region(l2, a.patches, pad_even(g.n), pad_even(g.kk));
      zero_region(l2, a.gemm_out, g.m, pad_even(g.kk));
    }
    zero_region(l2, a.pre, pad_even(g.out_vec), bp);
    if (g.relu) zero_region(l2, a.act, pad_even(g.out_vec), bp);
  }

  ForwardResult res;
  res.stats.macs = net.forward_macs(batch);
  const uint64_t cycle0 = cl_.cycle();
  TiledGemmRunner tiled(cl_, drv_, TiledGemmOptions{opts_.double_buffer});

  uint32_t cur_act = lay.input;
  for (size_t l = 0; l < geoms.size(); ++l) {
    const LayerGeom& g = geoms[l];
    const LayerAddrs& a = lay.layers[l];
    const NetworkLayer& layer = net.layer(l);

    if (g.conv) {
      REDMULE_REQUIRE(batch == 1, "conv layers require batch 1");
      const uint32_t np = pad_even(g.n), kkp = pad_even(g.kk);
      NetworkGemmStats gs{
          lowered_gemm(l, AeGemm::Phase::kForward, g.m, g.n, g.kk), {}};

      // im2col front-end: reshape the resident activation column to the
      // (C x H*W) image and stage the padded patch matrix.
      const workloads::Conv2dParams& p = layer.conv;
      const MatrixF16 col = read_mat(l2, cur_act, g.in_vec, bp);
      MatrixF16 img(p.in_channels, static_cast<size_t>(p.in_h) * p.in_w);
      for (size_t r = 0; r < img.rows(); ++r)
        for (size_t c = 0; c < img.cols(); ++c)
          img(r, c) = col(r * img.cols() + c, 0);
      write_mat(l2, a.patches, pad_to(im2col(img, p), np, kkp));

      const TiledGemmPlan plan = workloads::plan_tiled_gemm(
          g.m, np, kkp, false, drv_.bytes_free(), cl_.config().geometry);
      gs.tiled = tiled.run_staged({a.weight, a.patches, a.gemm_out, 0}, plan);
      gs.tiled.macs = gs.shape.macs();
      cl_.sim().checkpoint();  // per-GEMM deadline/cancel poll point

      // Bias on the real region, then flatten row-major into the next
      // activation column (the pre buffer was zeroed, pads stay +0).
      MatrixF16 z = read_mat(l2, a.gemm_out, g.m, kkp);
      if (!layer.bias.empty()) apply_bias(z, layer.bias, g.m, g.kk);
      MatrixF16 flat(pad_even(g.out_vec), bp);
      for (uint32_t r = 0; r < g.m; ++r)
        for (uint32_t c = 0; c < g.kk; ++c) flat(r * g.kk + c, 0) = z(r, c);
      write_mat(l2, a.pre, flat);
      res.stats.gemms.push_back(gs);

      if (g.relu) apply_relu(l2, a.pre, a.act, pad_even(g.out_vec), bp);
    } else {
      res.stats.gemms.push_back(
          run_linear_layer(cl_, drv_, tiled, layer, g, a, cur_act, batch, bp, l));
    }
    cur_act = a.act;
  }

  res.stats.total_cycles = cl_.cycle() - cycle0;
  res.out = strip_to(read_mat(l2, cur_act, geoms.back().out_vec, bp),
                     geoms.back().out_vec, batch);
  return res;
}

void NetworkRunner::stage_training_template(const NetworkGraph& net,
                                            uint32_t batch) {
  check_training_net(net);
  REDMULE_REQUIRE(batch >= 1, "batch must be positive");
  const uint32_t bp = pad_even(batch);
  auto& l2 = cl_.l2();
  const std::vector<LayerGeom> geoms = geoms_from_graph(net, batch);
  const Layout lay = training_layout_checked(l2, geoms, batch);

  // Weights in both orientations, padded per the lowering contract; the
  // gradient and activation regions zeroed. All through the zero-time L2
  // backdoor over disjoint regions, so splitting this off from the
  // execution half is invisible in simulated cycles and every staged bit.
  for (size_t l = 0; l < geoms.size(); ++l) {
    const LayerGeom& g = geoms[l];
    const LayerAddrs& a = lay.layers[l];
    write_mat(l2, a.weight, pad_to(net.layer(l).weight, g.m, pad_even(g.n)));
    write_mat(l2, a.wt,
              pad_to(net.layer(l).weight.transposed(), g.n, pad_even(g.m)));
    zero_region(l2, a.dw, g.m, pad_even(g.n));
    zero_region(l2, a.pre, pad_even(g.out_vec), bp);
    if (g.relu) zero_region(l2, a.act, pad_even(g.out_vec), bp);
  }
}

NetworkRunner::TrainingResult NetworkRunner::training_step(NetworkGraph& net,
                                                           const MatrixF16& x,
                                                           const MatrixF16& target,
                                                           double lr) {
  stage_training_template(net, static_cast<uint32_t>(x.cols()));
  return training_step_staged(net, x, target, lr);
}

NetworkRunner::TrainingResult NetworkRunner::training_step_staged(
    NetworkGraph& net, const MatrixF16& x, const MatrixF16& target, double lr) {
  const size_t n_layers = net.n_layers();
  check_training_net(net);
  REDMULE_REQUIRE(x.rows() == net.input_dim(), "input dimension mismatch");
  const uint32_t batch = static_cast<uint32_t>(x.cols());
  REDMULE_REQUIRE(batch >= 1, "batch must be positive");
  REDMULE_REQUIRE(target.rows() == net.output_dim() && target.cols() == batch,
                  "target shape mismatch");
  const uint32_t bp = pad_even(batch);

  auto& l2 = cl_.l2();
  const std::vector<LayerGeom> geoms = geoms_from_graph(net, batch);
  const Layout lay = training_layout_checked(l2, geoms, batch);

  // --- Stage the per-job input; the template staged everything else --------
  write_mat(l2, lay.input, pad_to(x, pad_even(geoms.front().in_vec), bp));

  TrainingResult res;
  res.stats.macs = net.training_macs(batch);
  const uint64_t cycle0 = cl_.cycle();
  TiledGemmRunner tiled(cl_, drv_, TiledGemmOptions{opts_.double_buffer});
  const core::Geometry& geom = cl_.config().geometry;

  // --- Forward, activations kept resident per layer ------------------------
  uint32_t cur_act = lay.input;
  for (size_t l = 0; l < geoms.size(); ++l) {
    res.stats.gemms.push_back(run_linear_layer(cl_, drv_, tiled, net.layer(l),
                                               geoms[l], lay.layers[l], cur_act,
                                               batch, bp, l));
    cur_act = lay.layers[l].act;
  }

  // --- MSE loss gradient: dY = fp16(out - target) on the real region -------
  const LayerGeom& gl = geoms.back();
  {
    const MatrixF16 out = read_mat(l2, lay.layers.back().pre, gl.m, bp);
    MatrixF16 dy(pad_even(gl.out_vec), bp);  // pads stay exactly +0
    double mse = 0.0;
    for (uint32_t r = 0; r < gl.m; ++r)
      for (uint32_t c = 0; c < batch; ++c) {
        const double diff = out(r, c).to_double() - target(r, c).to_double();
        mse += diff * diff;
        dy(r, c) = Float16::from_double(diff);
      }
    res.mse = mse / (static_cast<double>(gl.m) * batch);
    write_mat(l2, lay.dy0, dy);
    res.out = strip_to(out, gl.m, batch);
  }

  // --- Backward: dW_l = dY * A_l^T, dX_l = W_l^T * dY ----------------------
  uint32_t dy_cur = lay.dy0, dy_next = lay.dy1;
  for (size_t li = n_layers; li-- > 0;) {
    const LayerGeom& g = geoms[li];
    const uint32_t inp = pad_even(g.n), outp = pad_even(g.m);
    const uint32_t act_in = li == 0 ? lay.input : lay.layers[li - 1].act;

    // A_l^T staged into the scratch region (a transpose of the resident
    // padded activation; on the real cluster MCHAN's 2-D strides gather it,
    // here it moves through the zero-time backdoor like all staging).
    write_mat(l2, lay.act_t,
              read_mat(l2, act_in, inp, bp).transposed());  // (bp x inp)

    NetworkGemmStats gw{
        lowered_gemm(li, AeGemm::Phase::kGradWeight, g.m, g.n, batch), {}};
    const TiledGemmPlan plan_dw = workloads::plan_tiled_gemm(
        g.m, bp, inp, false, drv_.bytes_free(), geom);
    gw.tiled = tiled.run_staged({dy_cur, lay.act_t, lay.layers[li].dw, 0}, plan_dw);
    gw.tiled.macs = gw.shape.macs();
    res.stats.gemms.push_back(gw);
    cl_.sim().checkpoint();  // per-GEMM deadline/cancel poll point

    if (li > 0) {
      NetworkGemmStats gx{
          lowered_gemm(li, AeGemm::Phase::kGradInput, g.m, g.n, batch), {}};
      const TiledGemmPlan plan_dx = workloads::plan_tiled_gemm(
          g.n, outp, bp, false, drv_.bytes_free(), geom);
      gx.tiled = tiled.run_staged({lay.layers[li].wt, dy_cur, dy_next, 0}, plan_dx);
      gx.tiled.macs = gx.shape.macs();
      res.stats.gemms.push_back(gx);
      cl_.sim().checkpoint();  // per-GEMM deadline/cancel poll point

      // ReLU backward (where the pre-activation was negative) plus pad-row
      // scrubbing: the alternating dY buffers are reused across layers of
      // different heights, so rows [n, inp) may hold a stale taller layer.
      MatrixF16 dx = read_mat(l2, dy_next, inp, bp);
      const bool mask = net.layer(li - 1).relu;
      const MatrixF16 pa =
          mask ? read_mat(l2, lay.layers[li - 1].pre, g.n, bp) : MatrixF16();
      for (uint32_t r = 0; r < inp; ++r)
        for (uint32_t c = 0; c < bp; ++c) {
          if (r >= g.n)
            dx(r, c) = Float16{};
          else if (mask && c < batch && Float16::lt(pa(r, c), Float16{}))
            dx(r, c) = Float16{};
        }
      write_mat(l2, dy_next, dx);
      std::swap(dy_cur, dy_next);
    }
  }
  res.stats.total_cycles = cl_.cycle() - cycle0;

  // --- Read gradients back, optional SGD update on the host weights --------
  res.dw.resize(n_layers);
  for (size_t l = 0; l < n_layers; ++l) {
    const LayerGeom& g = geoms[l];
    res.dw[l] = strip_to(read_mat(l2, lay.layers[l].dw, g.m, pad_even(g.n)),
                         g.m, g.n);
    if (lr != 0.0) workloads::apply_sgd_update(net.weight(l), res.dw[l], lr, batch);
  }
  return res;
}

NetworkRunner::TrainingSliceResult NetworkRunner::training_slice(
    const NetworkGraph& net, const MatrixF16& x, const MatrixF16& target) {
  // The template also zeroes the dW regions a slice never touches; on the
  // reset cluster those regions already read zero, and the zero-write path
  // does not even materialize pages, so staging the full template here is
  // bit- and cycle-invisible versus the historical slice-only staging.
  stage_training_template(net, static_cast<uint32_t>(x.cols()));
  return training_slice_staged(net, x, target);
}

NetworkRunner::TrainingSliceResult NetworkRunner::training_slice_staged(
    const NetworkGraph& net, const MatrixF16& x, const MatrixF16& target) {
  const size_t n_layers = net.n_layers();
  check_training_net(net);
  REDMULE_REQUIRE(x.rows() == net.input_dim(), "input dimension mismatch");
  const uint32_t batch = static_cast<uint32_t>(x.cols());
  REDMULE_REQUIRE(batch >= 1, "batch must be positive");
  REDMULE_REQUIRE(target.rows() == net.output_dim() && target.cols() == batch,
                  "target shape mismatch");
  const uint32_t bp = pad_even(batch);

  // The FULL training layout, even though the dW regions stay untouched:
  // every forward/dX GEMM must see the same addresses, plans and staged bits
  // as training_step would for this slice, so the per-column results -- and
  // the captured dW operands -- are bit-identical to the monolithic run.
  auto& l2 = cl_.l2();
  const std::vector<LayerGeom> geoms = geoms_from_graph(net, batch);
  const Layout lay = training_layout_checked(l2, geoms, batch);

  write_mat(l2, lay.input, pad_to(x, pad_even(geoms.front().in_vec), bp));

  TrainingSliceResult res;
  res.grads.batch = batch;
  res.grads.padded_batch = bp;
  res.grads.dy.resize(n_layers);
  res.grads.act.resize(n_layers);
  const uint64_t cycle0 = cl_.cycle();
  TiledGemmRunner tiled(cl_, drv_, TiledGemmOptions{opts_.double_buffer});
  const core::Geometry& geom = cl_.config().geometry;

  uint32_t cur_act = lay.input;
  for (size_t l = 0; l < geoms.size(); ++l) {
    res.stats.gemms.push_back(run_linear_layer(cl_, drv_, tiled, net.layer(l),
                                               geoms[l], lay.layers[l], cur_act,
                                               batch, bp, l));
    cur_act = lay.layers[l].act;
  }

  // Loss gradient exactly as training_step writes it (the MSE scalar is the
  // orchestrator's job -- it needs the assembled full-batch output).
  const LayerGeom& gl = geoms.back();
  {
    const MatrixF16 out = read_mat(l2, lay.layers.back().pre, gl.m, bp);
    MatrixF16 dy(pad_even(gl.out_vec), bp);  // pads stay exactly +0
    for (uint32_t r = 0; r < gl.m; ++r)
      for (uint32_t c = 0; c < batch; ++c)
        dy(r, c) = Float16::from_double(out(r, c).to_double() -
                                        target(r, c).to_double());
    write_mat(l2, lay.dy0, dy);
    res.out = strip_to(out, gl.m, batch);
  }

  // Backward dX chain only; at each layer, capture the padded L2 bits the
  // dW GEMM would read -- dY as its (m x Bp) X operand, the input
  // activation whose transpose is its W operand -- for the accumulator.
  uint32_t dy_cur = lay.dy0, dy_next = lay.dy1;
  for (size_t li = n_layers; li-- > 0;) {
    const LayerGeom& g = geoms[li];
    const uint32_t inp = pad_even(g.n), outp = pad_even(g.m);
    const uint32_t act_in = li == 0 ? lay.input : lay.layers[li - 1].act;
    res.grads.dy[li] = read_mat(l2, dy_cur, g.m, bp);
    res.grads.act[li] = read_mat(l2, act_in, inp, bp);

    if (li > 0) {
      NetworkGemmStats gx{
          lowered_gemm(li, AeGemm::Phase::kGradInput, g.m, g.n, batch), {}};
      const TiledGemmPlan plan_dx = workloads::plan_tiled_gemm(
          g.n, outp, bp, false, drv_.bytes_free(), geom);
      gx.tiled = tiled.run_staged({lay.layers[li].wt, dy_cur, dy_next, 0}, plan_dx);
      gx.tiled.macs = gx.shape.macs();
      res.stats.gemms.push_back(gx);
      cl_.sim().checkpoint();  // per-GEMM deadline/cancel poll point

      MatrixF16 dx = read_mat(l2, dy_next, inp, bp);
      const bool mask = net.layer(li - 1).relu;
      const MatrixF16 pa =
          mask ? read_mat(l2, lay.layers[li - 1].pre, g.n, bp) : MatrixF16();
      for (uint32_t r = 0; r < inp; ++r)
        for (uint32_t c = 0; c < bp; ++c) {
          if (r >= g.n)
            dx(r, c) = Float16{};
          else if (mask && c < batch && Float16::lt(pa(r, c), Float16{}))
            dx(r, c) = Float16{};
        }
      write_mat(l2, dy_next, dx);
      std::swap(dy_cur, dy_next);
    }
  }
  res.stats.total_cycles = cl_.cycle() - cycle0;
  for (const NetworkGemmStats& gs : res.stats.gemms)
    res.stats.macs += gs.tiled.macs;
  return res;
}

DwAccumulator::DwAccumulator(Cluster& cluster, RedmuleDriver& driver,
                             const NetworkGraph& net, uint32_t max_padded_batch,
                             NetworkRunnerOptions opts)
    : cl_(cluster), drv_(driver), opts_(opts),
      max_padded_batch_(max_padded_batch) {
  REDMULE_REQUIRE(net.n_layers() >= 1, "empty network");
  REDMULE_REQUIRE(!net.has_conv(),
                  "gradient reduction requires a pure linear chain");
  REDMULE_REQUIRE(max_padded_batch >= 2 && max_padded_batch % 2 == 0,
                  "padded batch must be even and positive");

  auto& l2 = cl_.l2();
  const std::vector<LayerGeom> geoms =
      geoms_from_graph(net, max_padded_batch);
  const AccLayout lay =
      build_acc_layout(geoms, max_padded_batch, l2.config().base_addr);
  if (lay.total_bytes > l2.config().size_bytes)
    throw CapacityError("L2 too small for the gradient-reduction layout (" +
                        std::to_string(lay.total_bytes) + " bytes needed, " +
                        std::to_string(l2.config().size_bytes) + " available)");
  for (size_t l = 0; l < geoms.size(); ++l) {
    const LayerGeom& g = geoms[l];
    layers_.push_back(LayerSlot{g.m, g.n, lay.dw[l]});
    zero_region(l2, lay.dw[l], g.m, pad_even(g.n));
    gradient_bytes_ += static_cast<uint64_t>(g.m) * pad_even(g.n) * 2;
  }
  dy_addr_ = lay.dy;
  act_t_addr_ = lay.act_t;
}

NetworkStats DwAccumulator::accumulate(
    const NetworkRunner::SliceBackward& grads, bool first) {
  REDMULE_REQUIRE(grads.dy.size() == layers_.size() &&
                      grads.act.size() == layers_.size(),
                  "slice layer count mismatch");
  const uint32_t sp = grads.padded_batch;
  REDMULE_REQUIRE(sp == pad_even(grads.batch) && sp >= 2 &&
                      sp <= max_padded_batch_,
                  "slice padded batch out of range");

  auto& l2 = cl_.l2();
  NetworkStats stats;
  const uint64_t cycle0 = cl_.cycle();
  TiledGemmRunner tiled(cl_, drv_, TiledGemmOptions{opts_.double_buffer});
  const core::Geometry& geom = cl_.config().geometry;

  // Same descending-layer order as training_step's backward walk.
  for (size_t li = layers_.size(); li-- > 0;) {
    const LayerSlot& s = layers_[li];
    const uint32_t np = pad_even(s.n);
    REDMULE_REQUIRE(grads.dy[li].rows() == s.m && grads.dy[li].cols() == sp,
                    "slice dY shape mismatch");
    REDMULE_REQUIRE(grads.act[li].rows() == np && grads.act[li].cols() == sp,
                    "slice activation shape mismatch");
    // The captured padded bits, staged verbatim: dY as the X operand, the
    // activation transposed into the W operand -- the exact staging
    // training_step performs for its dW GEMM, restricted to this slice.
    write_mat(l2, dy_addr_, grads.dy[li]);
    write_mat(l2, act_t_addr_, grads.act[li].transposed());  // (sp x np)

    NetworkGemmStats gw{
        lowered_gemm(li, AeGemm::Phase::kGradWeight, s.m, s.n, grads.batch), {}};
    // first: plain GEMM starting the chain. Otherwise the resident partial
    // preloads as Y in place (y == z), continuing the reduction exactly as
    // the monolithic chain's next H-aligned segment would.
    const TiledGemmPlan plan = workloads::plan_tiled_gemm(
        s.m, sp, np, /*has_y=*/!first, drv_.bytes_free(), geom);
    gw.tiled = tiled.run_staged(
        {dy_addr_, act_t_addr_, s.dw, first ? 0u : s.dw}, plan);
    gw.tiled.macs = gw.shape.macs();
    stats.macs += gw.tiled.macs;
    stats.gemms.push_back(gw);
    cl_.sim().checkpoint();  // per-GEMM deadline/cancel poll point
  }
  stats.total_cycles = cl_.cycle() - cycle0;
  return stats;
}

std::vector<core::MatrixF16> DwAccumulator::gradients() const {
  auto& l2 = cl_.l2();
  std::vector<core::MatrixF16> dw;
  dw.reserve(layers_.size());
  for (const LayerSlot& s : layers_)
    dw.push_back(
        strip_to(read_mat(l2, s.dw, s.m, pad_even(s.n)), s.m, s.n));
  return dw;
}

uint64_t DwAccumulator::l2_bytes(const std::vector<uint32_t>& dims,
                                 uint32_t batch) {
  return build_acc_layout(geoms_from_dims(dims, batch), pad_even(batch), 0)
      .total_bytes;
}

uint64_t NetworkRunner::training_l2_bytes(const std::vector<uint32_t>& dims,
                                          uint32_t batch) {
  return build_layout(geoms_from_dims(dims, batch), batch, /*training=*/true, 0)
      .total_bytes;
}

uint64_t NetworkRunner::min_tcdm_bytes(const std::vector<uint32_t>& dims,
                                       uint32_t batch, const core::Geometry& g) {
  const uint32_t bp = pad_even(batch);
  uint64_t need = 0;
  auto consider = [&](uint32_t m, uint32_t n, uint32_t k) {
    need = std::max(need,
                    workloads::min_tile_plan(m, n, k, false, g).tcdm_bytes());
  };
  for (const LayerGeom& lg : geoms_from_dims(dims, batch)) {
    consider(lg.m, pad_even(lg.n), bp);            // forward
    consider(lg.m, bp, pad_even(lg.n));            // dW
    consider(lg.n, pad_even(lg.m), bp);            // dX
  }
  return need;
}

}  // namespace redmule::cluster
