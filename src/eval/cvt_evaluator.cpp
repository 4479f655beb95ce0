#include "eval/cvt_evaluator.hpp"

#include <algorithm>
#include <utility>

#include "eval/core_linear_evaluator.hpp"

namespace gkx::eval {

using xpath::Axis;
using xpath::BinaryOp;
using xpath::ContextDependence;
using xpath::Expr;
using xpath::Function;

namespace {

/// Appends the members of `set` in [lo, hi) to *out, in ascending order, a
/// word at a time.
void AppendMembers(const NodeBitset& set, int32_t lo, int32_t hi,
                   std::vector<xml::NodeId>* out) {
  if (lo >= hi) return;
  const uint64_t* const words = set.words();
  const size_t first = static_cast<size_t>(lo >> 6);
  const size_t last = static_cast<size_t>((hi - 1) >> 6);
  for (size_t wi = first; wi <= last; ++wi) {
    uint64_t w = words[wi];
    if (wi == first) w &= ~uint64_t{0} << (lo & 63);
    if (wi == last) w &= ~uint64_t{0} >> (63 - ((hi - 1) & 63));
    for (; w != 0; w &= w - 1) {
      out->push_back(static_cast<xml::NodeId>(
          wi * 64 + static_cast<size_t>(__builtin_ctzll(w))));
    }
  }
}

/// Appends the members of `set` on `axis` from `origin` to *out, in axis
/// order. Descendant, descendant-or-self and following scan their preorder
/// range a word at a time; the other axes walk their chain with one bit test
/// per node.
void GatherCandidates(const xml::Document& doc, Axis axis, xml::NodeId origin,
                      const NodeBitset& set, std::vector<xml::NodeId>* out) {
  const int32_t end = origin + doc.subtree_size(origin);
  switch (axis) {
    case Axis::kDescendant:
      AppendMembers(set, origin + 1, end, out);
      return;
    case Axis::kDescendantOrSelf:
      AppendMembers(set, origin, end, out);
      return;
    case Axis::kFollowing:
      AppendMembers(set, end, doc.size(), out);
      return;
    default:
      ForEachOnAxis(doc, origin, axis, [&](xml::NodeId v) {
        if (set.Test(v)) out->push_back(v);
        return true;
      });
      return;
  }
}

/// Whether `predicate` is a bare last(), which keeps the last candidate.
bool IsLast(const Expr& predicate) {
  return predicate.kind() == Expr::Kind::kFunctionCall &&
         predicate.As<xpath::FunctionCall>().function() == Function::kLast;
}

/// Calls fn(i) for every set bit i of the `words` words at `bits`.
template <typename Fn>
void ForEachBit(const uint64_t* bits, size_t words, Fn&& fn) {
  for (size_t wi = 0; wi < words; ++wi) {
    for (uint64_t w = bits[wi]; w != 0; w &= w - 1) {
      fn(wi * 64 + static_cast<size_t>(__builtin_ctzll(w)));
    }
  }
}

}  // namespace

Status CvtEvaluator::Prepare() {
  const size_t n = static_cast<size_t>(query().num_exprs());
  constant_.assign(n, std::nullopt);
  by_node_.assign(n, {});
  table_entries_ = 0;
  small_known_.assign(n, 0);

  if (options_.eager) {
    // Bottom-up pass: expression ids are preorder, so reverse id order
    // visits children before parents. Fill the full context-value table of
    // every node-dependent subexpression; position-dependent ones have no
    // table.
    for (int id = query().num_exprs() - 1; id >= 0; --id) {
      const Expr& expr = query().expr(id);
      switch (query().analysis().traits(expr).dependence) {
        case ContextDependence::kNone: {
          auto value = Eval(expr, RootContext(doc()));
          if (!value.ok()) return value.status();
          break;
        }
        case ContextDependence::kNode: {
          for (xml::NodeId v = 0; v < doc().size(); ++v) {
            auto value = Eval(expr, Context{v, 1, 1});
            if (!value.ok()) return value.status();
          }
          break;
        }
        case ContextDependence::kFull:
          break;  // never tabled
      }
    }
  }
  return Status::Ok();
}

Result<bool> CvtEvaluator::Truth(const Expr& expr, const Context& ctx,
                                 bool predicate) {
  const xpath::ExprTraits& traits = query().analysis().traits(expr);
  if (traits.position_test) {
    CountEvaluation();
    return position_block_.Truth(expr, predicate,
                                 static_cast<double>(ctx.position),
                                 static_cast<double>(ctx.size));
  }
  if (conditions_ != nullptr && traits.core_condition) {
    auto set = conditions_->ConditionSet(expr);
    if (!set.ok()) return set.status();
    return (*set)->Test(ctx.node);
  }
  if (const Value* cell = Cell(expr, ctx)) {
    return predicate ? PredicateTruth(*cell, ctx) : cell->ToBoolean();
  }
  return RecursiveEvaluatorBase::Truth(expr, ctx, predicate);
}

const Value* CvtEvaluator::Cell(const Expr& expr, const Context& ctx) const {
  const size_t id = static_cast<size_t>(expr.id());
  switch (query().analysis().traits(expr).dependence) {
    case ContextDependence::kNone:
      return constant_[id].has_value() ? &*constant_[id] : nullptr;
    case ContextDependence::kNode: {
      auto it = by_node_[id].find(ctx.node);
      return it == by_node_[id].end() ? nullptr : &it->second;
    }
    case ContextDependence::kFull:
      return nullptr;  // recomputed, never tabled
  }
  GKX_CHECK(false);
  return nullptr;
}

bool CvtEvaluator::LookupMemo(const Expr& expr, const Context& ctx, Value* out) {
  const Value* cell = Cell(expr, ctx);
  if (cell == nullptr) return false;
  *out = *cell;
  return true;
}

void CvtEvaluator::StoreMemo(const Expr& expr, const Context& ctx,
                             const Value& value) {
  const size_t id = static_cast<size_t>(expr.id());
  // The entry count reflects genuine inserts only.
  bool inserted = false;
  switch (query().analysis().traits(expr).dependence) {
    case ContextDependence::kNone:
      if (!constant_[id].has_value()) {
        constant_[id] = value;
        inserted = true;
      }
      break;
    case ContextDependence::kNode:
      inserted = by_node_[id].emplace(ctx.node, value).second;
      break;
    case ContextDependence::kFull:
      break;  // never tabled
  }
  if (inserted) ++table_entries_;
}

Result<NodeBitset> CvtEvaluator::StepImage(const xpath::Step& step,
                                           const NodeBitset& frontier) {
  GKX_CHECK(conditions_ != nullptr);
  // The candidates of all origins form one set.
  NodeBitset candidates = AxisImage(doc(), step.axis, frontier);
  candidates &= conditions_->TestSet(step);
  // A leading predicate that reads neither position() nor last() and is not
  // a number has one truth value per node: it filters that set once.
  size_t first = 0;
  for (; first < step.predicates.size() && !candidates.Empty(); ++first) {
    const Expr& predicate = *step.predicates[first];
    const xpath::ExprTraits& traits = query().analysis().traits(predicate);
    if (traits.uses_position || traits.uses_last ||
        traits.type == xpath::ValueType::kNumber) {
      break;
    }
    if (traits.core_condition) {
      auto set = conditions_->ConditionSet(predicate);
      if (!set.ok()) return set.status();
      candidates &= **set;
      continue;
    }
    NodeBitset kept(doc().size());
    Status status = Status::Ok();
    ForEachMember(candidates, [&](xml::NodeId v) {
      if (!status.ok()) return;
      auto keep = Truth(predicate, Context{v, 1, 1}, /*predicate=*/true);
      if (!keep.ok()) {
        status = keep.status();
      } else if (*keep) {
        kept.Set(v);
      }
    });
    GKX_RETURN_IF_ERROR(status);
    candidates = std::move(kept);
  }
  if (first == step.predicates.size() || candidates.Empty()) return candidates;

  // From the first position-dependent predicate on, a position is a rank in
  // one origin's candidate list.
  NodeBitset image(doc().size());
  Status status = Status::Ok();
  ForEachMember(frontier, [&](xml::NodeId origin) {
    if (!status.ok()) return;
    candidates_.clear();
    GatherCandidates(doc(), step.axis, origin, candidates, &candidates_);
    for (size_t p = first; p < step.predicates.size() && status.ok() &&
                           !candidates_.empty();
         ++p) {
      status = FilterCandidates(*step.predicates[p], &candidates_);
    }
    if (!status.ok()) return;
    for (xml::NodeId v : candidates_) image.Set(v);
  });
  GKX_RETURN_IF_ERROR(status);
  return image;
}

Status CvtEvaluator::FilterCandidates(const Expr& predicate,
                                      std::vector<xml::NodeId>* list) {
  const PositionalShape shape = PositionalShape::Of(predicate);
  if (shape.kind != PositionalShape::kNone) {
    shape.Select(list);
    return Status::Ok();
  }
  if (IsLast(predicate)) {
    list->front() = list->back();
    list->resize(1);
    return Status::Ok();
  }
  const size_t size = list->size();
  const size_t words = (size + 63) / 64;
  uint64_t* const keep = Column(0, words);
  if (query().analysis().traits(predicate).position_test) {
    // Its mask over positions 1..size is the survivors.
    PositionMask(predicate, /*predicate=*/true, static_cast<int64_t>(size),
                 keep);
  } else {
    uint64_t* const all = Column(1, words);
    std::fill(all, all + words, ~uint64_t{0});
    if (size % 64 != 0) all[words - 1] = (uint64_t{1} << (size % 64)) - 1;
    GKX_RETURN_IF_ERROR(
        TruthColumn(predicate, /*predicate=*/true, *list, all, keep, 2));
  }
  size_t kept = 0;
  ForEachBit(keep, words, [&](size_t i) { (*list)[kept++] = (*list)[i]; });
  list->resize(kept);
  return Status::Ok();
}

Status CvtEvaluator::TruthColumn(const Expr& expr, bool predicate,
                                 const std::vector<xml::NodeId>& list,
                                 const uint64_t* where, uint64_t* out,
                                 size_t slot) {
  const size_t words = (list.size() + 63) / 64;
  std::fill(out, out + words, 0);
  if (std::all_of(where, where + words, [](uint64_t w) { return w == 0; })) {
    return Status::Ok();
  }
  const xpath::ExprTraits& traits = query().analysis().traits(expr);
  if (traits.position_test) {
    PositionMask(expr, predicate, static_cast<int64_t>(list.size()), out);
    for (size_t w = 0; w < words; ++w) out[w] &= where[w];
    return Status::Ok();
  }
  if (traits.core_condition) {
    auto set = conditions_->ConditionSet(expr);
    if (!set.ok()) return set.status();
    ForEachBit(where, words, [&](size_t i) {
      out[i >> 6] |= static_cast<uint64_t>((*set)->Test(list[i])) << (i & 63);
    });
    return Status::Ok();
  }
  if (expr.kind() == Expr::Kind::kBinary) {
    const auto& binary = expr.As<xpath::BinaryExpr>();
    if (binary.op() == BinaryOp::kAnd || binary.op() == BinaryOp::kOr) {
      // The right operand is evaluated only where the left one did not
      // decide, as the interpreter short-circuits, so an error surfaces
      // exactly where it would there.
      const bool is_and = binary.op() == BinaryOp::kAnd;
      GKX_RETURN_IF_ERROR(TruthColumn(binary.lhs(), /*predicate=*/false, list,
                                      where, out, slot + 2));
      uint64_t* const undecided = Column(slot, words);
      for (size_t w = 0; w < words; ++w) {
        undecided[w] = where[w] & (is_and ? out[w] : ~out[w]);
      }
      uint64_t* const rhs = Column(slot + 1, words);
      GKX_RETURN_IF_ERROR(TruthColumn(binary.rhs(), /*predicate=*/false, list,
                                      undecided, rhs, slot + 2));
      for (size_t w = 0; w < words; ++w) {
        out[w] = is_and ? rhs[w] : out[w] | rhs[w];
      }
      return Status::Ok();
    }
  } else if (expr.kind() == Expr::Kind::kFunctionCall) {
    const auto& call = expr.As<xpath::FunctionCall>();
    if (call.function() == Function::kNot ||
        call.function() == Function::kBoolean) {
      uint64_t* const arg = Column(slot, words);
      GKX_RETURN_IF_ERROR(TruthColumn(call.arg(0), /*predicate=*/false, list,
                                      where, arg, slot + 1));
      const bool negate = call.function() == Function::kNot;
      for (size_t w = 0; w < words; ++w) {
        out[w] = negate ? where[w] & ~arg[w] : arg[w];
      }
      return Status::Ok();
    }
  }
  // Anything else: one Truth per candidate.
  const auto size = static_cast<int64_t>(list.size());
  Status status = Status::Ok();
  ForEachBit(where, words, [&](size_t i) {
    if (!status.ok()) return;
    auto truth = Truth(
        expr, Context{list[i], static_cast<int64_t>(i) + 1, size}, predicate);
    if (!truth.ok()) {
      status = truth.status();
    } else if (*truth) {
      out[i >> 6] |= uint64_t{1} << (i & 63);
    }
  });
  return status;
}

void CvtEvaluator::PositionMask(const Expr& expr, bool predicate,
                                int64_t size, uint64_t* out) {
  // An expression sits in one place of the query, so its id fixes whether
  // it is a predicate.
  const auto id = static_cast<size_t>(expr.id());
  const bool small = size <= 64;
  const uint64_t known = small ? uint64_t{1} << (size - 1) : 0;
  const size_t at = id * 64 + static_cast<size_t>(size - 1);
  if ((small_known_[id] & known) != 0) {
    *out = small_masks_[at];
    return;
  }
  std::fill(out, out + (size + 63) / 64, 0);
  constexpr int kLanes = xpath::PositionBlock::kLanes;
  uint8_t truth[kLanes];
  for (int64_t first = 1; first <= size; first += kLanes) {
    const int count =
        static_cast<int>(std::min<int64_t>(kLanes, size - first + 1));
    position_block_.Truths(expr, predicate, static_cast<double>(first), count,
                           static_cast<double>(size), truth);
    for (int i = 0; i < count; ++i) {
      const int64_t bit = first - 1 + i;
      out[bit >> 6] |= static_cast<uint64_t>(truth[i]) << (bit & 63);
    }
  }
  CountEvaluation(size);
  if (small) {
    if (small_masks_.size() < small_known_.size() * 64) {
      small_masks_.resize(small_known_.size() * 64);
    }
    small_masks_[at] = *out;
    small_known_[id] |= known;
  }
}

uint64_t* CvtEvaluator::Column(size_t slot, size_t words) {
  while (columns_.size() <= slot) columns_.emplace_back();
  std::vector<uint64_t>& column = columns_[slot];
  if (column.size() < words) column.resize(words);
  return column.data();
}

}  // namespace gkx::eval
