#include "qtensor/program.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "qtensor/shape.hpp"
#include "qtensor/slicing.hpp"
#include "sim/simd.hpp"

namespace qarch::qtensor {

namespace {

/// A cached order is applicable iff it repeats nothing, touches no open
/// variable, and covers every closed variable of the network. The
/// structure-hash guard should guarantee this; validating anyway turns hash
/// collisions and corrupt cache entries into a silent replan instead of a
/// failed compile.
bool order_applicable(const TensorNetwork& net, const std::set<VarId>& open,
                      const std::vector<VarId>& order) {
  std::set<VarId> seen(order.begin(), order.end());
  if (seen.size() != order.size()) return false;
  for (VarId v : order)
    if (open.count(v) > 0) return false;
  for (VarId v : net.variables())
    if (open.count(v) == 0 && seen.count(v) == 0) return false;
  return true;
}

/// Plans `net` and drops the open labels from the winning order: they are
/// output axes, not eliminations. With open labels the cost is rescored on
/// the filtered order, the schedule that actually runs.
ContractionPlan plan_closed_vars(const TensorNetwork& net,
                                 const std::set<VarId>& open,
                                 const PlannerOptions& options) {
  ContractionPlan plan = plan_contraction(net, options);
  if (open.empty()) return plan;
  std::erase_if(plan.order, [&](VarId v) { return open.count(v) > 0; });
  plan.cost = CostModel(net).cost(plan.order);
  return plan;
}

/// The fused bucket step over the reduced index space (the eliminated
/// variable, product position 0, dropped): out[i] = lo + hi, where lo and
/// hi multiply the factors at the eliminated variable's 0 and 1, in factor
/// order. Factor f starts at data[f][idx[f]], reaches its hi entry at
/// +v_stride[f], and steps its flat index by delta[f * reduced_rank + t]
/// when incrementing i sets bit t (the odometer: the change depends on
/// countr_zero(i) alone).
void product_sum(std::size_t num_factors, std::size_t reduced_rank,
                 const cplx* const* data, std::size_t* idx,
                 const std::size_t* v_stride, const std::ptrdiff_t* delta,
                 cplx* out) {
  const std::size_t end = std::size_t{1} << reduced_rank;
  const auto advance = [](std::size_t cur, const std::ptrdiff_t* d,
                          std::size_t next) {
    return static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(cur) +
        d[static_cast<std::size_t>(std::countr_zero(next))]);
  };

  // Vectorized path: per factor, walk the odometer once to GATHER the
  // (lo, hi) pair stream into contiguous scratch runs, then chain the factor
  // products through lane-wise SIMD multiplies — in the SAME factor order as
  // the scalar loop below — and emit lo+hi with one vectorized add. The
  // gathers are scalar either way (the indices are data-dependent), but the
  // 2*(num_factors-1) complex multiplies and the final add per output, the
  // bulk of the arithmetic, run two complex lanes per AVX2 register.
  // sim::simd::active() folds in the QARCH_SIMD=0 override and the CPU
  // check, so this block self-disables into the scalar walk.
  constexpr std::size_t kBlock = 64;
  if (sim::simd::active() && end >= 32) {
    cplx lo_acc[kBlock], hi_acc[kBlock];
    cplx lo_t[kBlock], hi_t[kBlock];
    std::size_t i = 0;
    while (i < end) {
      const std::size_t len = std::min(kBlock, end - i);
      for (std::size_t f = 0; f < num_factors; ++f) {
        cplx* lo_dst = (f == 0) ? lo_acc : lo_t;
        cplx* hi_dst = (f == 0) ? hi_acc : hi_t;
        const cplx* src = data[f];
        const std::ptrdiff_t* d = delta + f * reduced_rank;
        const std::size_t vs = v_stride[f];
        std::size_t cur = idx[f];
        for (std::size_t j = 0; j < len; ++j) {
          lo_dst[j] = src[cur];
          hi_dst[j] = src[cur + vs];
          if (const std::size_t next = i + j + 1; next < end)
            cur = advance(cur, d, next);
        }
        idx[f] = cur;
        if (f > 0) {
          sim::simd::cplx_mul_runs(lo_acc, lo_t, len);
          sim::simd::cplx_mul_runs(hi_acc, hi_t, len);
        }
      }
      sim::simd::cplx_add_runs(out + i, lo_acc, hi_acc, len);
      i += len;
    }
    return;
  }

  for (std::size_t i = 0;;) {
    cplx lo = data[0][idx[0]];
    cplx hi = data[0][idx[0] + v_stride[0]];
    for (std::size_t f = 1; f < num_factors; ++f) {
      lo *= data[f][idx[f]];
      hi *= data[f][idx[f] + v_stride[f]];
    }
    out[i] = lo + hi;
    if (++i >= end) break;
    for (std::size_t f = 0; f < num_factors; ++f)
      idx[f] = advance(idx[f], delta + f * reduced_rank, i);
  }
}

/// A factor's stride at each of `rank` product positions, from the
/// compile-time position of each of its labels (`pos`, one per label in the
/// factor's own order); a position it lacks gets 0, a broadcast.
void place_strides(const std::uint8_t* pos, std::size_t factor_rank,
                   std::size_t rank, std::size_t* stride) {
  std::fill_n(stride, rank, std::size_t{0});
  for (std::size_t j = 0; j < factor_rank; ++j)
    stride[pos[j]] = std::size_t{1} << (factor_rank - 1 - j);
}

}  // namespace

struct ContractionProgram::Scratch {
  bool ready = false;
  std::vector<Tensor> slots;     ///< inputs_ copies + step intermediates
  std::vector<Tensor> full;      ///< unprojected slice-carrying inputs,
                                 ///< parallel to sliced_inputs_
  // A slice assignment fills each projected slot from its full input: slot
  // entry w is full entry gather[w] plus the strides of the slice variables
  // the assignment sets to 1.
  std::vector<std::size_t> gather;        ///< per sliced input, per entry
  std::vector<std::size_t> slice_stride;  ///< per sliced input, per slice var
  std::vector<cplx> partial;     ///< one slice's output (sliced only)
  // The odometer of the step or output layout being replayed, sized for the
  // widest of them.
  std::vector<const cplx*> data;      ///< per factor: its slot's entries
  std::vector<std::size_t> idx;       ///< per factor: flat index (at lo)
  std::vector<std::size_t> v_stride;  ///< per factor: eliminated var's stride
  std::vector<std::ptrdiff_t> delta;  ///< per factor, per walked bit
  std::vector<std::size_t> stride;    ///< one factor's stride per position
};

/// RAII pool lease: scratch workspaces persist across replays (buffer reuse
/// is the point of compiling) and across threads (the pool grows to the
/// peak replay concurrency, then stabilizes).
struct ContractionProgram::ScratchLease {
  const ContractionProgram* program;
  std::unique_ptr<Scratch> scratch;

  ScratchLease(const ContractionProgram* p, std::unique_ptr<Scratch> s)
      : program(p), scratch(std::move(s)) {}
  ScratchLease(ScratchLease&&) = default;
  ScratchLease(const ScratchLease&) = delete;
  ~ScratchLease() {
    if (scratch == nullptr) return;
    LockGuard lock(program->pool_mutex_);
    program->pool_.push_back(std::move(scratch));
  }
};

ContractionProgram::ContractionProgram(const circuit::Circuit& circuit,
                                       std::size_t u, std::size_t v,
                                       const ProgramOptions& options)
    : options_(options), num_params_(circuit.num_params()) {
  // The ONE network build of this program's lifetime. Any probe theta
  // produces the same structure; zeros keep the baked data deterministic.
  TensorNetwork net =
      expectation_zz_network(circuit, std::vector<double>(num_params_, 0.0),
                             u, v, &bindings_);
  std::string key = options_.shape_key;
  if (options_.plan_cache != nullptr && key.empty())
    key = lightcone_shape(circuit, u, v).key;
  compile(std::move(net), std::move(key));
}

ContractionProgram::ContractionProgram(const circuit::Circuit& circuit,
                                       std::size_t q,
                                       const ProgramOptions& options)
    : options_(options), num_params_(circuit.num_params()) {
  TensorNetwork net =
      expectation_z_network(circuit, std::vector<double>(num_params_, 0.0),
                            q, &bindings_);
  std::string key = options_.shape_key;
  if (options_.plan_cache != nullptr && key.empty())
    key = "z:" + std::to_string(q);
  compile(std::move(net), std::move(key));
}

ContractionProgram::ContractionProgram(QueryNetwork network,
                                       std::vector<VarId> final_labels,
                                       std::size_t num_params,
                                       const ProgramOptions& options,
                                       std::string shape_key)
    : options_(options),
      num_params_(num_params),
      bindings_(std::move(network.bindings)),
      caps_(std::move(network.caps)) {
  {
    std::set<VarId> want(network.open_labels.begin(),
                         network.open_labels.end());
    std::set<VarId> got(final_labels.begin(), final_labels.end());
    QARCH_REQUIRE(want == got && final_labels.size() ==
                                     network.open_labels.size(),
                  "final_labels must permute the network's open labels");
  }
  final_labels_ = std::move(final_labels);
  compile(std::move(network.net), std::move(shape_key));
}

ContractionProgram::~ContractionProgram() = default;

void ContractionProgram::compile(TensorNetwork net, std::string shape_key) {
  const std::set<VarId> open(final_labels_.begin(), final_labels_.end());

  // Contraction order: a plan-cache hit (keyed by shape key + exact
  // structure hash) replays a previously chosen order with zero planner
  // work; otherwise the planner competes the ordering heuristics under the
  // exact bucket-elimination cost model, keeps the cheapest, and records it
  // for every later program of the same shape. Either way the order holds
  // closed variables only — the cache stores it that way.
  ContractionPlan plan;
  std::uint64_t structure = 0;
  if (options_.plan_cache != nullptr) {
    structure = network_structure_hash(net);
    if (auto hit = options_.plan_cache->find(shape_key, structure);
        hit.has_value() && order_applicable(net, open, hit->order)) {
      plan.order = std::move(hit->order);
      plan.cost = CostModel(net).cost(plan.order);
      plan.heuristic = hit->heuristic + "+cached";
      stats_.plan_cached = true;
    }
  }
  if (!stats_.plan_cached) {
    plan = plan_closed_vars(net, open, options_.planner);
    if (options_.plan_cache != nullptr)
      options_.plan_cache->insert(
          {shape_key, structure, plan.order, plan.heuristic});
  }
  stats_.shape_key = std::move(shape_key);

  // Slicing decision (step-dependent parallelization): if the planned width
  // blows the budget, fix greedy max-degree closed variables one at a time
  // and re-plan the projected structure until it fits. Open labels are
  // output axes and never sliced. The projected copy is only materialized
  // when slicing actually triggers; the common path schedules against `net`
  // directly.
  TensorNetwork projected;
  const TensorNetwork* scheduled = &net;
  if (options_.slice_above_width > 0 &&
      plan.cost.width > options_.slice_above_width) {
    for (std::size_t s = 1; s <= options_.max_slice_vars; ++s) {
      slice_vars_ = choose_slice_vars(net, s, final_labels_);
      // Projection is structural: every assignment removes the same labels,
      // so assignment 0 stands in for all 2^s of them.
      projected = project_network(net, slice_vars_, 0);
      scheduled = &projected;
      plan = plan_closed_vars(projected, open, options_.planner);
      if (plan.cost.width <= options_.slice_above_width) break;
    }
  }

  for (std::size_t i = 0; i < net.tensors.size(); ++i) {
    const auto& labels = net.tensors[i].labels();
    const bool carries = std::any_of(
        slice_vars_.begin(), slice_vars_.end(), [&](VarId sv) {
          return std::find(labels.begin(), labels.end(), sv) != labels.end();
        });
    if (carries) sliced_inputs_.push_back(i);
  }

  // Flatten bucket elimination over the scheduled structure into a static
  // step list. Mirrors contract(): per eliminated variable, the bucket is
  // every live slot carrying it; the product spans the union label set with
  // the variable first, so the post-product sum is a halves fold. Each
  // factor label's position in that product is recorded here, so a replay
  // never searches a label.
  struct Live {
    std::size_t slot;
    std::vector<VarId> labels;
  };
  std::vector<Live> live;
  live.reserve(scheduled->tensors.size());
  QARCH_CHECK(scheduled->tensors.size() == net.tensors.size(),
              "projection changed the tensor count");
  for (std::size_t i = 0; i < scheduled->tensors.size(); ++i)
    live.push_back({i, scheduled->tensors[i].labels()});
  num_slots_ = net.tensors.size();

  for (VarId var : plan.order) {
    std::vector<Live> bucket, rest;
    rest.reserve(live.size());
    for (Live& l : live)
      (std::find(l.labels.begin(), l.labels.end(), var) != l.labels.end()
           ? bucket
           : rest)
          .push_back(std::move(l));
    live = std::move(rest);
    if (bucket.empty()) continue;
    std::set<VarId> union_set;
    for (const Live& l : bucket)
      union_set.insert(l.labels.begin(), l.labels.end());
    std::vector<VarId> labels;  // the product's labels, var first
    labels.reserve(union_set.size());
    labels.push_back(var);
    for (VarId w : union_set)
      if (w != var) labels.push_back(w);

    Step step;
    step.first_factor = static_cast<std::uint32_t>(factor_slots_.size());
    step.num_factors = static_cast<std::uint32_t>(bucket.size());
    step.first_label = static_cast<std::uint32_t>(label_pos_.size());
    step.rank = static_cast<std::uint32_t>(labels.size());
    step.out_slot = static_cast<std::uint32_t>(num_slots_++);
    for (const Live& l : bucket) {
      factor_slots_.push_back(static_cast<std::uint32_t>(l.slot));
      for (VarId w : l.labels)
        label_pos_.push_back(static_cast<std::uint8_t>(
            std::find(labels.begin(), labels.end(), w) - labels.begin()));
    }
    max_factors_ = std::max(max_factors_, bucket.size());
    stats_.width = std::max(stats_.width, labels.size());
    labels.erase(labels.begin());
    live.push_back({step.out_slot, std::move(labels)});
    steps_.push_back(step);
  }

  // Everything still alive is a factor of the output: scalars for a closed
  // network, tensors over open labels only for a query. Each survivor
  // label's output position is recorded here, so the layout never searches
  // a label either.
  std::set<VarId> covered;
  for (const Live& l : live) {
    for (VarId v : l.labels) {
      const auto it = std::find(final_labels_.begin(), final_labels_.end(), v);
      QARCH_CHECK(it != final_labels_.end(),
                  "compiled schedule left a closed variable uneliminated");
      covered.insert(v);
      final_pos_.push_back(
          static_cast<std::uint8_t>(it - final_labels_.begin()));
    }
    final_slots_.push_back(l.slot);
  }
  QARCH_CHECK(covered.size() == open.size(),
              "an open label vanished from the network");
  if (!final_labels_.empty())
    max_factors_ = std::max(max_factors_, final_slots_.size());
  stats_.width = std::max(stats_.width, final_labels_.size());
  QARCH_REQUIRE(stats_.width <= kMaxProgramWidth,
                "contraction width exceeds kMaxProgramWidth after slicing "
                "(too many open labels, or raise max_slice_vars)");

  // Inputs keep the UNPROJECTED tensors: rebinding happens against the full
  // gate tensors, projection (if any) happens per replay assignment.
  inputs_ = std::move(net.tensors);

  stats_.tensors = inputs_.size();
  stats_.bound_tensors = bindings_.size();
  stats_.cap_tensors = caps_.size();
  stats_.open_labels = final_labels_.size();
  stats_.steps = steps_.size();
  stats_.est_flops = plan.cost.flops;
  stats_.slice_vars = slice_vars_.size();
  stats_.heuristic = plan.heuristic;
  // Intermediate slot entries only: the fused step kernel never
  // materializes a full bucket product.
  stats_.scratch_entries = 0;
  for (const Step& s : steps_)
    stats_.scratch_entries += std::size_t{1} << (s.rank - 1);
}

void ContractionProgram::init_scratch(Scratch& s) const {
  s.slots.clear();
  s.slots.reserve(num_slots_);
  s.full.clear();
  for (std::size_t i = 0; i < inputs_.size(); ++i) s.slots.push_back(inputs_[i]);
  s.gather.clear();
  s.slice_stride.clear();
  for (std::size_t i : sliced_inputs_) {
    s.full.push_back(inputs_[i]);
    // The projected slot keeps the labels no slice variable names, in order.
    // Walking the labels from the least significant, each kept one doubles
    // the slot's offset list (its bit sits above those already walked).
    const std::vector<VarId>& labels = inputs_[i].labels();
    const std::size_t first = s.gather.size();
    const std::size_t first_stride = s.slice_stride.size();
    s.gather.push_back(0);
    s.slice_stride.resize(first_stride + slice_vars_.size(), 0);
    std::vector<VarId> kept;
    for (std::size_t p = labels.size(); p-- > 0;) {
      const std::size_t stride = std::size_t{1} << (labels.size() - 1 - p);
      const auto sv =
          std::find(slice_vars_.begin(), slice_vars_.end(), labels[p]);
      if (sv != slice_vars_.end()) {
        s.slice_stride[first_stride +
                       static_cast<std::size_t>(sv - slice_vars_.begin())] =
            stride;
        continue;
      }
      kept.insert(kept.begin(), labels[p]);
      const std::size_t n = s.gather.size() - first;
      for (std::size_t w = 0; w < n; ++w)
        s.gather.push_back(s.gather[first + w] + stride);
    }
    s.slots[i] =
        Tensor(std::move(kept), std::vector<cplx>(s.gather.size() - first));
  }
  // An intermediate's labels are its product's minus the eliminated first
  // one; the recorded positions rebuild the product's from its factors'.
  std::vector<VarId> labels;
  for (const Step& st : steps_) {
    labels.assign(st.rank, 0);
    const std::uint8_t* pos = label_pos_.data() + st.first_label;
    for (std::size_t f = 0; f < st.num_factors; ++f) {
      const auto& fl = s.slots[factor_slots_[st.first_factor + f]].labels();
      for (VarId w : fl) labels[*pos++] = w;
    }
    s.slots.emplace_back(std::vector<VarId>(labels.begin() + 1, labels.end()),
                         std::vector<cplx>(std::size_t{1} << (st.rank - 1)));
  }
  if (!slice_vars_.empty()) s.partial.assign(output_entries(), cplx{});
  // stats_.width covers every step's rank and the output rank.
  s.data.resize(max_factors_);
  s.idx.resize(max_factors_);
  s.v_stride.resize(max_factors_);
  s.delta.resize(max_factors_ * stats_.width);
  s.stride.resize(stats_.width);
  s.ready = true;
}

Tensor& ContractionProgram::rebind_target(Scratch& s,
                                          std::size_t input) const {
  // Slice-carrying tensors are rebound in their FULL form; the projection
  // into the slot happens per assignment inside run().
  const auto it =
      std::find(sliced_inputs_.begin(), sliced_inputs_.end(), input);
  return it == sliced_inputs_.end()
             ? s.slots[input]
             : s.full[static_cast<std::size_t>(it - sliced_inputs_.begin())];
}

void ContractionProgram::run_step(Scratch& s, const Step& st) const {
  // The odometer walks the reduced index: product positions 1..rank-1, the
  // eliminated variable (position 0) reached through v_stride.
  const std::size_t rank = st.rank;
  const std::size_t reduced = rank - 1;
  const std::uint8_t* pos = label_pos_.data() + st.first_label;
  for (std::size_t f = 0; f < st.num_factors; ++f) {
    const Tensor& factor = s.slots[factor_slots_[st.first_factor + f]];
    place_strides(pos, factor.rank(), rank, s.stride.data());
    pos += factor.rank();
    odometer_deltas(s.stride.data() + 1, reduced, s.delta.data() + f * reduced);
    s.data[f] = factor.data().data();
    s.idx[f] = 0;
    s.v_stride[f] = s.stride[0];
  }
  product_sum(st.num_factors, reduced, s.data.data(), s.idx.data(),
              s.v_stride.data(), s.delta.data(),
              s.slots[st.out_slot].data().data());
}

void ContractionProgram::run_schedule(Scratch& s, cplx* out) const {
  for (const Step& st : steps_) run_step(s, st);
  if (final_labels_.empty()) {
    cplx value{1.0, 0.0};
    for (std::size_t slot : final_slots_)
      value *= s.slots[slot].scalar_value();
    *out = value;
    return;
  }
  // The surviving slots' labels are all open, so one broadcast product lays
  // the result out along final_labels_ (rank-0 survivors broadcast as
  // scalars), the factors multiplied in survivor order.
  const std::size_t rank = final_labels_.size();
  const std::uint8_t* pos = final_pos_.data();
  for (std::size_t f = 0; f < final_slots_.size(); ++f) {
    const Tensor& factor = s.slots[final_slots_[f]];
    place_strides(pos, factor.rank(), rank, s.stride.data());
    pos += factor.rank();
    odometer_deltas(s.stride.data(), rank, s.delta.data() + f * rank);
    s.data[f] = factor.data().data();
  }
  product_walk(final_slots_.size(), rank, s.data.data(), s.delta.data(),
               s.idx.data(), out);
}

ContractionProgram::ScratchLease ContractionProgram::lease() const {
  {
    LockGuard lock(pool_mutex_);
    if (!pool_.empty()) {
      std::unique_ptr<Scratch> s = std::move(pool_.back());
      pool_.pop_back();
      return {this, std::move(s)};
    }
  }
  return {this, std::make_unique<Scratch>()};
}

void ContractionProgram::run(std::span<const double> theta,
                             std::span<const int> cap_bits,
                             std::span<cplx> out) const {
  QARCH_REQUIRE(theta.size() >= num_params_,
                "parameter vector too short for compiled program");
  QARCH_REQUIRE(cap_bits.size() == caps_.size(),
                "cap_bits size must match the program's cap count");
  for (int bit : cap_bits)
    QARCH_REQUIRE(bit == 0 || bit == 1, "cap bits must be 0 or 1");
  QARCH_REQUIRE(out.size() == output_entries(),
                "output buffer size must be 2^open_labels");
  ScratchLease l = lease();
  Scratch& s = *l.scratch;
  if (!s.ready) init_scratch(s);
  for (const GateBinding& b : bindings_)
    gate_tensor_data(b.gate, theta, b.diagonal,
                     rebind_target(s, b.tensor_index).data());
  for (std::size_t i = 0; i < caps_.size(); ++i)
    cap_tensor_data(cap_bits[i], rebind_target(s, caps_[i].tensor_index).data());
  if (slice_vars_.empty()) {
    run_schedule(s, out.data());
    return;
  }

  std::fill(out.begin(), out.end(), cplx{0.0, 0.0});
  const std::size_t num_slices = std::size_t{1} << slice_vars_.size();
  const std::size_t num_vars = slice_vars_.size();
  for (std::size_t assignment = 0; assignment < num_slices; ++assignment) {
    const std::size_t* offset = s.gather.data();
    for (std::size_t j = 0; j < sliced_inputs_.size(); ++j) {
      std::size_t base = 0;
      for (std::size_t k = 0; k < num_vars; ++k)
        if ((assignment >> k) & 1) base += s.slice_stride[j * num_vars + k];
      const cplx* from = s.full[j].data().data() + base;
      for (cplx& entry : s.slots[sliced_inputs_[j]].data())
        entry = from[*offset++];
    }
    run_schedule(s, s.partial.data());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += s.partial[i];
  }
}

cplx ContractionProgram::contract(std::span<const double> theta) const {
  cplx value;
  run(theta, {}, std::span<cplx>(&value, 1));
  return value;
}

double ContractionProgram::expectation_zz(
    std::span<const double> theta) const {
  const cplx value = contract(theta);
  QARCH_CHECK(std::abs(value.imag()) < 1e-8,
              "Hermitian expectation has a large imaginary part");
  return value.real();
}

}  // namespace qarch::qtensor
