// BpCursor: the TreeCursor over the in-memory balanced-parentheses index
// (encoding/bp_index.h) — the navigation tier beside the paged
// StoreCursor (physical_matcher.h).
//
// Tree steps are O(1)-ish bit operations on the BP bitvector: FIRST-CHILD
// is a bit probe, FOLLOWING-SIBLING a findclose, and — unlike the paged
// cursor — PARENT is cheap too (an enclose).  No BufferPool traffic at
// all; value predicates still go through the B+i/data-file pair keyed by
// the Dewey ID, exactly as in paged mode, so answers are identical across
// navigation modes.  Steps are counted into NavStats::bp_steps on the
// owning store so one snapshot covers all tiers.

#ifndef NOKXML_NOK_BP_CURSOR_H_
#define NOKXML_NOK_BP_CURSOR_H_

#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "encoding/bp_index.h"
#include "encoding/document_store.h"
#include "nok/logical_matcher.h"
#include "nok/pattern_tree.h"
#include "nok/tree_cursor.h"

namespace nok {

/// Cursor over a DocumentStore's balanced-parentheses index.
class BpCursor {
 public:
  /// A subject-tree position: BP open-bit position + derived Dewey ID.
  struct NodeT {
    uint64_t pos = 0;
    DeweyId dewey = DeweyId::Root();
    bool virtual_root = false;
  };

  /// `bp` must describe `store`'s current structure (take it from
  /// DocumentStore::bp_index()) and outlive the cursor.
  BpCursor(DocumentStore* store, const BpIndex* bp)
      : store_(store), bp_(bp) {}

  /// The virtual super-root (parent of the document root).
  NodeT VirtualRoot() const {
    NodeT node;
    node.virtual_root = true;
    return node;
  }

  /// Node handle for an arbitrary Dewey ID: a pure BP walk (component k
  /// = FIRST-CHILD then k FOLLOWING-SIBLINGs), no index or page access.
  Result<NodeT> NodeAt(const DeweyId& dewey) {
    const auto& components = dewey.components();
    if (components.empty() || components[0] != 0) {
      return Status::InvalidArgument("bad Dewey ID " + dewey.ToString());
    }
    if (bp_->node_count() == 0) {
      return Status::NotFound("no node with Dewey ID " + dewey.ToString());
    }
    uint64_t pos = 0;
    uint64_t steps = 1;
    for (size_t i = 1; i < components.size(); ++i) {
      ++steps;
      std::optional<uint64_t> child = bp_->FirstChild(pos);
      for (uint64_t k = 0; child.has_value() && k < components[i]; ++k) {
        ++steps;
        child = bp_->FollowingSibling(*child);
      }
      if (!child.has_value()) {
        store_->tree()->BumpBpSteps(steps);
        return Status::NotFound("no node with Dewey ID " +
                                dewey.ToString());
      }
      pos = *child;
    }
    store_->tree()->BumpBpSteps(steps);
    return NodeT{pos, dewey, false};
  }

  Result<std::optional<NodeT>> FirstChild(const NodeT& node) {
    if (node.virtual_root) {
      if (bp_->node_count() == 0) return std::optional<NodeT>();
      return std::optional<NodeT>(NodeT{0, DeweyId::Root(), false});
    }
    store_->tree()->BumpBpSteps(1);
    const auto child = bp_->FirstChild(node.pos);
    if (!child.has_value()) return std::optional<NodeT>();
    return std::optional<NodeT>(NodeT{*child, node.dewey.Child(0), false});
  }

  Result<std::optional<NodeT>> FollowingSibling(const NodeT& node) {
    if (node.virtual_root || node.dewey.depth() == 1) {
      return std::optional<NodeT>();  // The root has no siblings.
    }
    store_->tree()->BumpBpSteps(1);
    const auto sibling = bp_->FollowingSibling(node.pos);
    if (!sibling.has_value()) return std::optional<NodeT>();
    NodeT next{*sibling, node.dewey, false};
    next.dewey.NextSibling();  // In place: no component-vector rebuild.
    return std::optional<NodeT>(std::move(next));
  }

  /// PARENT — the step the paged cursor cannot answer without a rescan.
  Result<std::optional<NodeT>> Parent(const NodeT& node) {
    if (node.virtual_root) return std::optional<NodeT>();
    if (node.dewey.depth() == 1) {
      return std::optional<NodeT>(VirtualRoot());
    }
    store_->tree()->BumpBpSteps(1);
    const auto parent = bp_->Parent(node.pos);
    if (!parent.has_value()) return std::optional<NodeT>();
    std::optional<DeweyId> up = node.dewey.Parent();
    if (!up.has_value()) return std::optional<NodeT>();
    return std::optional<NodeT>(
        NodeT{*parent, *std::move(up), false});
  }

  Result<bool> Matches(const NodeT& node, const PatternNode& pattern) {
    if (pattern.is_doc_root) return node.virtual_root;
    if (node.virtual_root) return false;
    if (!pattern.wildcard) {
      const TagId want = ResolveTag(pattern);
      if (want == kInvalidTag) return false;
      if (bp_->TagAt(node.pos) != want) return false;
    }
    if (pattern.predicate.active()) {
      NOK_ASSIGN_OR_RETURN(auto value, store_->ValueOf(node.dewey));
      if (!value.has_value()) return false;
      return EvalValuePredicate(pattern.predicate, *value);
    }
    return true;
  }

  /// Installs the plan-time tag table (see ResolvePatternTags).
  void set_tag_table(const std::vector<TagId>* table) {
    tag_table_ = table;
  }

  DocumentStore* store() { return store_; }
  const BpIndex* bp() const { return bp_; }

 private:
  TagId ResolveTag(const PatternNode& pattern) {
    if (tag_table_ != nullptr &&
        static_cast<size_t>(pattern.id) < tag_table_->size()) {
      return (*tag_table_)[static_cast<size_t>(pattern.id)];
    }
    auto id = store_->tags()->Lookup(pattern.tag);
    return id.has_value() ? *id : kInvalidTag;
  }

  DocumentStore* store_;
  const BpIndex* bp_;
  const std::vector<TagId>* tag_table_ = nullptr;
};

/// The BP-backed physical matcher: same Algorithm 1, O(1) primitives.
using BpNokMatcher = NokMatcher<BpCursor>;

}  // namespace nok

#endif  // NOKXML_NOK_BP_CURSOR_H_
