// Tests for the circuit IR: construction, parameters, inverse, drawing, QASM.
#include <gtest/gtest.h>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace qarch;
using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using circuit::ParamExpr;

TEST(ParamExpr, EvaluatesAllKinds) {
  const std::vector<double> theta{0.5, 2.0};
  EXPECT_DOUBLE_EQ(ParamExpr::none().value(theta), 0.0);
  EXPECT_DOUBLE_EQ(ParamExpr::constant_angle(1.25).value(theta), 1.25);
  EXPECT_DOUBLE_EQ(ParamExpr::symbol(1, 3.0).value(theta), 6.0);
  EXPECT_THROW((void)ParamExpr::symbol(5).value(theta), Error);
}

TEST(Circuit, AppendValidation) {
  Circuit c(2, 1);
  EXPECT_THROW(c.h(5), Error);                       // qubit range
  EXPECT_THROW(c.cx(0, 0), Error);                   // distinct qubits
  EXPECT_THROW(c.rx(0, ParamExpr::symbol(3)), Error);  // unregistered param
  EXPECT_THROW(c.append({GateKind::H, 0, 0, ParamExpr::constant_angle(1.0)}),
               Error);                               // fixed gate with angle
  c.rx(0, ParamExpr::symbol(0));
  EXPECT_EQ(c.num_gates(), 1u);
}

TEST(Circuit, AddParamGrowsSpace) {
  Circuit c(1);
  EXPECT_EQ(c.add_param(), 0u);
  EXPECT_EQ(c.add_param(), 1u);
  EXPECT_EQ(c.num_params(), 2u);
}

TEST(Circuit, ComposeShiftsParameters) {
  Circuit a(2);
  const std::size_t pa = a.add_param();
  a.rx(0, ParamExpr::symbol(pa));

  Circuit b(2);
  const std::size_t pb = b.add_param();
  b.ry(1, ParamExpr::symbol(pb, 2.0));

  a.compose(b);
  EXPECT_EQ(a.num_params(), 2u);
  EXPECT_EQ(a.num_gates(), 2u);
  EXPECT_EQ(a.gates()[1].param.index, 1u);  // shifted
  EXPECT_DOUBLE_EQ(a.gates()[1].param.scale, 2.0);

  Circuit wrong(3);
  EXPECT_THROW(a.compose(wrong), Error);
}

TEST(Circuit, DepthAccountsForParallelGates) {
  Circuit c(3);
  c.h(0);
  c.h(1);
  c.h(2);        // all in one layer
  EXPECT_EQ(c.depth(), 1u);
  c.cx(0, 1);    // second layer
  c.h(2);        // still second layer (q2 free)
  EXPECT_EQ(c.depth(), 2u);
  c.cx(1, 2);    // third layer
  EXPECT_EQ(c.depth(), 3u);
}

TEST(Circuit, TwoQubitGateCount) {
  Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.cz(1, 2);
  c.rzz(0, 2, ParamExpr::constant_angle(0.3));
  EXPECT_EQ(c.two_qubit_gate_count(), 3u);
}

TEST(CircuitInverse, UndoesTheCircuit) {
  // U U† must act as identity: running both on |+>^n returns |+>^n.
  Circuit c(3, 2);
  c.h(0);
  c.rx(1, ParamExpr::symbol(0, 2.0));
  c.cx(0, 1);
  c.rzz(1, 2, ParamExpr::symbol(1, -1.0));
  c.s(2);
  c.t(0);
  c.p(2, ParamExpr::constant_angle(0.77));

  Circuit round_trip = c;
  round_trip.compose(c.inverse());

  const std::vector<double> theta{0.6, 1.3, 0.6, 1.3};
  const sim::StatevectorSimulator sv;
  const sim::State out = sv.run_from_plus(round_trip, theta);
  const sim::State plus = sim::plus_state(3);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i].real(), plus[i].real(), 1e-10);
    EXPECT_NEAR(out[i].imag(), plus[i].imag(), 1e-10);
  }
}

TEST(CircuitInverse, MapsKindsCorrectly) {
  const Gate s{GateKind::S, 0, 0, ParamExpr::none()};
  EXPECT_EQ(s.inverse().kind, GateKind::Sdg);
  const Gate t{GateKind::T, 0, 0, ParamExpr::none()};
  EXPECT_EQ(t.inverse().kind, GateKind::Tdg);
  const Gate rx{GateKind::RX, 0, 0, ParamExpr::symbol(0, 2.0)};
  EXPECT_DOUBLE_EQ(rx.inverse().param.scale, -2.0);
  const Gate p{GateKind::P, 0, 0, ParamExpr::constant_angle(0.5)};
  EXPECT_DOUBLE_EQ(p.inverse().param.constant, -0.5);
  const Gate h{GateKind::H, 0, 0, ParamExpr::none()};
  EXPECT_EQ(h.inverse().kind, GateKind::H);
}

TEST(Drawer, RendersEveryQubitRowAndGateLabels) {
  Circuit c(3, 1);
  c.h(0);
  c.rx(1, ParamExpr::symbol(0, 2.0));
  c.cx(0, 2);
  const std::string art = circuit::draw(c);
  EXPECT_NE(art.find("q0"), std::string::npos);
  EXPECT_NE(art.find("q1"), std::string::npos);
  EXPECT_NE(art.find("q2"), std::string::npos);
  EXPECT_NE(art.find("[h]"), std::string::npos);
  EXPECT_NE(art.find("rx(2*t0)"), std::string::npos);
  EXPECT_NE(art.find("cx"), std::string::npos);
}

TEST(Qasm, EmitsBoundAngles) {
  Circuit c(2, 1);
  c.h(0);
  c.rx(1, ParamExpr::symbol(0, 2.0));
  c.cx(0, 1);
  const std::string qasm = circuit::to_qasm(c, std::vector<double>{0.25});
  EXPECT_NE(qasm.find("OPENQASM 2.0"), std::string::npos);
  EXPECT_NE(qasm.find("qreg q[2]"), std::string::npos);
  EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
  EXPECT_NE(qasm.find("rx(0.5) q[1];"), std::string::npos);
  EXPECT_NE(qasm.find("cx q[0],q[1];"), std::string::npos);
}

TEST(GateToString, HumanReadable) {
  const Gate g{GateKind::RX, 3, 0, ParamExpr::symbol(1, 2.0)};
  EXPECT_EQ(g.to_string(), "rx(2*t1) q3");
  const Gate cz{GateKind::CZ, 0, 2, ParamExpr::none()};
  EXPECT_EQ(cz.to_string(), "cz q0,q2");
}

}  // namespace
