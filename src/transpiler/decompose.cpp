#include "transpiler/decompose.hpp"

#include <stdexcept>

namespace qtc::transpiler {

namespace {

Operation make(OpKind kind, std::vector<Qubit> qubits,
               std::vector<double> params = {}) {
  Operation op;
  op.kind = kind;
  op.qubits = std::move(qubits);
  op.params = std::move(params);
  return op;
}

/// Controlled-U via the ABC construction: with U = e^{ia} Rz(b) Ry(g) Rz(d),
///   CU(c,t) = P(a)_c . A_t . CX . B_t . CX . C_t
/// where A = Rz(b) Ry(g/2), B = Ry(-g/2) Rz(-(d+b)/2), C = Rz((d-b)/2).
void controlled_unitary(const Matrix& u, Qubit control, Qubit target,
                        std::vector<Operation>& out) {
  const EulerAngles e = zyz_decompose(u);
  // U3(theta, phi, lambda) = e^{i(phi+lambda)/2} Rz(phi) Ry(theta) Rz(lambda)
  const double alpha = e.phase + (e.phi + e.lambda) / 2;
  const double beta = e.phi, gamma = e.theta, delta = e.lambda;
  auto push_rz = [&](double angle, Qubit q) {
    if (std::abs(angle) > 1e-12) out.push_back(make(OpKind::RZ, {q}, {angle}));
  };
  auto push_ry = [&](double angle, Qubit q) {
    if (std::abs(angle) > 1e-12) out.push_back(make(OpKind::RY, {q}, {angle}));
  };
  push_rz((delta - beta) / 2, target);  // C
  out.push_back(make(OpKind::CX, {control, target}));
  push_rz(-(delta + beta) / 2, target);  // B (Rz first, then Ry)
  push_ry(-gamma / 2, target);
  out.push_back(make(OpKind::CX, {control, target}));
  push_ry(gamma / 2, target);  // A (Ry first, then Rz)
  push_rz(beta, target);
  if (std::abs(alpha) > 1e-12) out.push_back(make(OpKind::P, {control}, {alpha}));
}

void ccx_network(Qubit a, Qubit b, Qubit c, std::vector<Operation>& out) {
  // The Clifford+T Toffoli network (qelib1's ccx).
  out.push_back(make(OpKind::H, {c}));
  out.push_back(make(OpKind::CX, {b, c}));
  out.push_back(make(OpKind::Tdg, {c}));
  out.push_back(make(OpKind::CX, {a, c}));
  out.push_back(make(OpKind::T, {c}));
  out.push_back(make(OpKind::CX, {b, c}));
  out.push_back(make(OpKind::Tdg, {c}));
  out.push_back(make(OpKind::CX, {a, c}));
  out.push_back(make(OpKind::T, {b}));
  out.push_back(make(OpKind::T, {c}));
  out.push_back(make(OpKind::H, {c}));
  out.push_back(make(OpKind::CX, {a, b}));
  out.push_back(make(OpKind::T, {a}));
  out.push_back(make(OpKind::Tdg, {b}));
  out.push_back(make(OpKind::CX, {a, b}));
}

/// Expand one operation into {1q, CX} pieces; returns false when the op is
/// already elementary (or non-unitary) and was emitted unchanged.
bool expand(const Operation& op, std::vector<Operation>& out) {
  const auto q = op.qubits;
  switch (op.kind) {
    case OpKind::CZ:
      out.push_back(make(OpKind::H, {q[1]}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::H, {q[1]}));
      return true;
    case OpKind::CY:
      out.push_back(make(OpKind::Sdg, {q[1]}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::S, {q[1]}));
      return true;
    case OpKind::CP: {
      const double l = op.params[0];
      out.push_back(make(OpKind::P, {q[0]}, {l / 2}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::P, {q[1]}, {-l / 2}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::P, {q[1]}, {l / 2}));
      return true;
    }
    case OpKind::CRZ: {
      const double l = op.params[0];
      out.push_back(make(OpKind::RZ, {q[1]}, {l / 2}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::RZ, {q[1]}, {-l / 2}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      return true;
    }
    case OpKind::CH:
    case OpKind::CRX:
    case OpKind::CRY:
    case OpKind::CU: {
      // Strip the leading control: the controlled 4x4 matrix embeds the
      // 2x2 unitary in the |control=1> block.
      const Matrix full = op_matrix(op.kind, op.params);
      Matrix u(2, 2);
      u(0, 0) = full(1, 1);
      u(0, 1) = full(1, 3);
      u(1, 0) = full(3, 1);
      u(1, 1) = full(3, 3);
      controlled_unitary(u, q[0], q[1], out);
      return true;
    }
    case OpKind::SWAP:
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::CX, {q[1], q[0]}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      return true;
    case OpKind::ISWAP:
      out.push_back(make(OpKind::S, {q[0]}));
      out.push_back(make(OpKind::S, {q[1]}));
      out.push_back(make(OpKind::H, {q[0]}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::CX, {q[1], q[0]}));
      out.push_back(make(OpKind::H, {q[1]}));
      return true;
    case OpKind::RZZ:
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::RZ, {q[1]}, {op.params[0]}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      return true;
    case OpKind::RXX:
      out.push_back(make(OpKind::H, {q[0]}));
      out.push_back(make(OpKind::H, {q[1]}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::RZ, {q[1]}, {op.params[0]}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::H, {q[0]}));
      out.push_back(make(OpKind::H, {q[1]}));
      return true;
    case OpKind::ECR:
      // Global phase dropped, like the other phase-normalized rewrites.
      for (Operation& g : ecr_as_cx(q[0], q[1])) out.push_back(std::move(g));
      return true;
    case OpKind::CCX:
      ccx_network(q[0], q[1], q[2], out);
      return true;
    case OpKind::CSWAP:
      out.push_back(make(OpKind::CX, {q[2], q[1]}));
      ccx_network(q[0], q[1], q[2], out);
      out.push_back(make(OpKind::CX, {q[2], q[1]}));
      return true;
    default:
      out.push_back(op);
      return false;
  }
}

}  // namespace

QuantumCircuit DecomposeMultiQubit::run(const QuantumCircuit& circuit) const {
  QuantumCircuit out(circuit.num_qubits(), circuit.num_clbits());
  for (const auto& op : circuit.ops()) {
    std::vector<Operation> pieces;
    expand(op, pieces);
    for (auto& piece : pieces) {
      piece.cond_reg = op.cond_reg;
      piece.cond_val = op.cond_val;
      out.append(std::move(piece));
    }
  }
  return out;
}

QuantumCircuit RewriteToUBasis::run(const QuantumCircuit& circuit) const {
  QuantumCircuit out(circuit.num_qubits(), circuit.num_clbits());
  for (const auto& op : circuit.ops()) {
    if (!op_is_unitary(op.kind) || op.kind == OpKind::CX ||
        op.kind == OpKind::U || op.kind == OpKind::P || op.kind == OpKind::U2 ||
        op.kind == OpKind::I) {
      out.append(op);
      continue;
    }
    if (op.qubits.size() != 1)
      throw std::invalid_argument(
          "rewrite-u-basis: run decompose-multi-qubit first (found " +
          std::string(op_name(op.kind)) + ")");
    const EulerAngles e = zyz_decompose(op_matrix(op.kind, op.params));
    Operation u = op;
    u.kind = OpKind::U;
    u.params = {e.theta, e.phi, e.lambda};
    out.append(std::move(u));
  }
  return out;
}

QuantumCircuit RewriteToEcrBasis::run(const QuantumCircuit& circuit) const {
  QuantumCircuit out(circuit.num_qubits(), circuit.num_clbits());
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::CX) {
      // CX(c, t) = e^{-i pi/4} [SX t][S c] ECR(c, t) [X c] (phase dropped).
      // Direction-preserving: the ECR inherits the CX orientation, so this
      // must run after FixCxDirections has legalized directions.
      std::vector<Operation> pieces;
      pieces.push_back(make(OpKind::X, {op.qubits[0]}));
      pieces.push_back(make(OpKind::ECR, {op.qubits[0], op.qubits[1]}));
      pieces.push_back(make(OpKind::S, {op.qubits[0]}));
      pieces.push_back(make(OpKind::SX, {op.qubits[1]}));
      for (auto& piece : pieces) {
        piece.cond_reg = op.cond_reg;
        piece.cond_val = op.cond_val;
        out.append(std::move(piece));
      }
      continue;
    }
    if (op_is_unitary(op.kind) && op.qubits.size() > 1 &&
        op.kind != OpKind::ECR)
      throw std::invalid_argument(
          "rewrite-ecr-basis: run decompose-multi-qubit first (found " +
          std::string(op_name(op.kind)) + ")");
    out.append(op);
  }
  return out;
}

QuantumCircuit RewriteToRzSxBasis::run(const QuantumCircuit& circuit) const {
  QuantumCircuit out(circuit.num_qubits(), circuit.num_clbits());
  auto push_rz = [&](double angle, Qubit q, const Operation& like) {
    angle = std::remainder(angle, 2 * PI);
    if (std::abs(angle) < 1e-12) return;
    Operation op;
    op.kind = OpKind::RZ;
    op.qubits = {q};
    op.params = {angle};
    op.cond_reg = like.cond_reg;
    op.cond_val = like.cond_val;
    out.append(std::move(op));
  };
  auto push_sx = [&](Qubit q, const Operation& like) {
    Operation op;
    op.kind = OpKind::SX;
    op.qubits = {q};
    op.cond_reg = like.cond_reg;
    op.cond_val = like.cond_val;
    out.append(std::move(op));
  };
  for (const auto& op : circuit.ops()) {
    if (!op_is_unitary(op.kind) || op.kind == OpKind::CX ||
        op.kind == OpKind::ECR || op.kind == OpKind::RZ ||
        op.kind == OpKind::SX || op.kind == OpKind::I) {
      out.append(op);
      continue;
    }
    if (op.qubits.size() != 1)
      throw std::invalid_argument(
          "rewrite-rzsx-basis: run decompose-multi-qubit first (found " +
          std::string(op_name(op.kind)) + ")");
    const Qubit q = op.qubits[0];
    const EulerAngles e = zyz_decompose(op_matrix(op.kind, op.params));
    if (std::abs(std::remainder(e.theta, 2 * PI)) < 1e-12) {
      // Diagonal gate: a single RZ (global phase dropped).
      push_rz(e.phi + e.lambda, q, op);
      continue;
    }
    // U(theta, phi, lambda) ~ RZ(phi + pi) SX RZ(theta + pi) SX RZ(lambda).
    push_rz(e.lambda, q, op);
    push_sx(q, op);
    push_rz(e.theta + PI, q, op);
    push_sx(q, op);
    push_rz(e.phi + PI, q, op);
  }
  return out;
}

}  // namespace qtc::transpiler
