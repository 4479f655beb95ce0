// The independent answer key for xml::ApplyEdit: NaiveApplyEdit rebuilds
// the edited document from scratch through TreeBuilder — a full
// re-construction sharing none of the splicer's machinery (no interval
// arithmetic, no link remapping, no pool reuse). The metamorphic contract
// is that ApplyEdit(doc, e) and NaiveApplyEdit(doc, e) are node-for-node
// identical (links, tags, labels, attributes, text, subtree sizes, depths),
// which ExhaustiveEquals checks field by field. CompileWorkload applies the
// check to every churn edit it compiles, so the soak differentially tests
// the delta path against an equivalent full replacement on every round.

#ifndef GKX_TESTKIT_REFERENCE_EDIT_HPP_
#define GKX_TESTKIT_REFERENCE_EDIT_HPP_

#include <string>

#include "xml/document.hpp"
#include "xml/edit.hpp"

namespace gkx::testkit {

/// Rebuilds `doc` with `edit` applied, from scratch (recursive over tree
/// depth — sized for test corpora, not the Θ(n)-deep reduction spines).
/// The edit must be valid for `doc` (ApplyEdit's preconditions).
xml::Document NaiveApplyEdit(const xml::Document& doc,
                             const xml::SubtreeEdit& edit);

/// Field-by-field equality over every node: links, depth, subtree size,
/// tag/label names, attributes, text. Heap offsets and NameIds are not
/// compared, only what they name. On mismatch returns false and, when `why`
/// is non-null, describes the first differing node.
bool ExhaustiveEquals(const xml::Document& a, const xml::Document& b,
                      std::string* why = nullptr);

}  // namespace gkx::testkit

#endif  // GKX_TESTKIT_REFERENCE_EDIT_HPP_
