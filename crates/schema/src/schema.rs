//! The schema structure: a counted tree over everything a partition has
//! ingested, built incrementally during LSM flushes (paper §3.1–3.2).

use tc_adm::{AdmError, TypeTag, Value};
use tc_util::varint;

use crate::dictionary::{FieldNameDictionary, FieldNameId};
use crate::node::{NodeId, SchemaNode};

/// The per-partition inferred schema.
///
/// The dictionary is append-only: on-disk compacted records reference
/// `FieldNameID`s, so ids must never be remapped while any component that
/// used them is alive. (The paper's Fig 11 shows the dictionary shrinking on
/// delete; we keep entries and prune only tree nodes — a few wasted bytes,
/// never a dangling id. See DESIGN.md.)
#[derive(Debug, Clone)]
pub struct Schema {
    nodes: Vec<SchemaNode>,
    dict: FieldNameDictionary,
    free: Vec<NodeId>,
}

const ROOT: NodeId = 0;
const MAGIC: &[u8; 4] = b"TCS1";

impl Default for Schema {
    fn default() -> Self {
        Self::new()
    }
}

impl Schema {
    /// An empty schema: a zero-counter root object.
    pub fn new() -> Self {
        Schema {
            nodes: vec![SchemaNode::Object { counter: 0, fields: Vec::new() }],
            dict: FieldNameDictionary::new(),
            free: Vec::new(),
        }
    }

    pub fn root(&self) -> NodeId {
        ROOT
    }

    pub fn node(&self, id: NodeId) -> &SchemaNode {
        &self.nodes[id as usize]
    }

    pub fn dict(&self) -> &FieldNameDictionary {
        &self.dict
    }

    /// Intern a field name without touching the tree. Used for names inside
    /// subtrees the schema does not track (e.g. beneath a declared field):
    /// compaction still needs ids for them.
    pub fn intern_name(&mut self, name: &str) -> FieldNameId {
        self.dict.get_or_insert(name)
    }

    /// Number of live (non-tombstone) nodes.
    pub fn num_live_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_dead()).count()
    }

    /// Total records observed (the root counter).
    pub fn record_count(&self) -> u64 {
        self.node(ROOT).counter()
    }

    fn alloc(&mut self, node: SchemaNode) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as NodeId
        }
    }

    fn kill(&mut self, id: NodeId) {
        debug_assert_ne!(id, ROOT, "root is never pruned");
        self.nodes[id as usize] = SchemaNode::Dead;
        self.free.push(id);
    }

    fn fresh_node(tag: TypeTag) -> SchemaNode {
        match tag {
            TypeTag::Object => SchemaNode::Object { counter: 1, fields: Vec::new() },
            TypeTag::Array | TypeTag::Multiset => {
                SchemaNode::Collection { tag, counter: 1, item: None }
            }
            t => SchemaNode::Scalar { tag: t, counter: 1 },
        }
    }

    // -----------------------------------------------------------------
    // Observation (schema inference)
    // -----------------------------------------------------------------

    /// Record one ingested record (increments the root counter).
    pub fn observe_root(&mut self) {
        *self.nodes[ROOT as usize].counter_mut() += 1;
    }

    /// Node `id`, if it is live.
    fn live(&self, id: NodeId) -> Result<&SchemaNode, AdmError> {
        match self.nodes.get(id as usize) {
            Some(node) if !node.is_dead() => Ok(node),
            other => Err(mismatch("live", id, other)),
        }
    }

    /// The fields of object node `obj`; a typed error when `obj` is not a
    /// live object (reachable from a corrupt deserialized schema, whose
    /// slots may name a node of another kind).
    fn fields_mut(&mut self, obj: NodeId) -> Result<&mut Vec<(FieldNameId, NodeId)>, AdmError> {
        match self.nodes.get_mut(obj as usize) {
            Some(SchemaNode::Object { fields, .. }) => Ok(fields),
            other => Err(mismatch("object", obj, other.map(|n| &*n))),
        }
    }

    /// The item slot of collection node `coll`, typed like [`Self::fields_mut`].
    fn item_mut(&mut self, coll: NodeId) -> Result<&mut Option<NodeId>, AdmError> {
        match self.nodes.get_mut(coll as usize) {
            Some(SchemaNode::Collection { item, .. }) => Ok(item),
            other => Err(mismatch("collection", coll, other.map(|n| &*n))),
        }
    }

    /// Observe a value of type `tag` at field `name` of object node `obj`.
    /// Creates nodes/unions as needed; returns the field-name id and the
    /// node describing this (name, tag) slot, for recursion into nested
    /// values.
    pub fn observe_field(
        &mut self,
        obj: NodeId,
        name: &str,
        tag: TypeTag,
    ) -> Result<(FieldNameId, NodeId), AdmError> {
        let fid = self.dict.get_or_insert(name);
        let (_, node) = self.observe_field_in(obj, fid, tag)?;
        Ok((fid, node))
    }

    /// [`Self::observe_field`] with a position hint: `slot` is where in
    /// `obj`'s field list the caller expects `name` — one past where the
    /// previous field of the same object was found, so a record shaped like
    /// the last one hits every time. A hit compares `name` with one
    /// dictionary entry and skips the dictionary hash and the field search;
    /// a miss is `observe_field`. Either way `slot` ends one past the
    /// field's position. The outcome is the same as `observe_field`'s.
    pub fn observe_field_at(
        &mut self,
        obj: NodeId,
        slot: &mut usize,
        name: &str,
        tag: TypeTag,
    ) -> Result<(FieldNameId, NodeId), AdmError> {
        let hinted = self.fields_mut(obj)?.get(*slot).map(|&(fid, _)| fid);
        if let Some(fid) = hinted.filter(|&fid| self.dict.name(fid) == Some(name)) {
            let node = self.merge_field_slot(obj, *slot, tag)?;
            *slot += 1;
            return Ok((fid, node));
        }
        let fid = self.dict.get_or_insert(name);
        let (pos, node) = self.observe_field_in(obj, fid, tag)?;
        *slot = pos + 1;
        Ok((fid, node))
    }

    /// Observe into field `fid` of `obj`, creating the field if it is new;
    /// returns the field's position in the object's list and the node
    /// describing `tag`.
    fn observe_field_in(
        &mut self,
        obj: NodeId,
        fid: FieldNameId,
        tag: TypeTag,
    ) -> Result<(usize, NodeId), AdmError> {
        match self.fields_mut(obj)?.iter().position(|(f, _)| *f == fid) {
            Some(pos) => Ok((pos, self.merge_field_slot(obj, pos, tag)?)),
            None => {
                let child = self.alloc(Self::fresh_node(tag));
                let fields = self.fields_mut(obj)?;
                fields.push((fid, child));
                Ok((fields.len() - 1, child))
            }
        }
    }

    /// Merge an observation of `tag` into the `pos`-th field of `obj`.
    fn merge_field_slot(
        &mut self,
        obj: NodeId,
        pos: usize,
        tag: TypeTag,
    ) -> Result<NodeId, AdmError> {
        let child = self.fields_mut(obj)?[pos].1;
        let merged = self.merge_into_slot(child, tag)?;
        if merged.replaced != child {
            self.fields_mut(obj)?[pos].1 = merged.replaced;
        }
        Ok(merged.target)
    }

    /// Observe a collection item of type `tag` under collection node `coll`.
    pub fn observe_item(&mut self, coll: NodeId, tag: TypeTag) -> Result<NodeId, AdmError> {
        let Some(child) = *self.item_mut(coll)? else {
            let child = self.alloc(Self::fresh_node(tag));
            *self.item_mut(coll)? = Some(child);
            return Ok(child);
        };
        let merged = self.merge_into_slot(child, tag)?;
        if merged.replaced != child {
            *self.item_mut(coll)? = Some(merged.replaced);
        }
        Ok(merged.target)
    }

    /// Merge an observation of `tag` into the slot currently holding
    /// `child`. Returns the node now describing `tag` (`target`) and the
    /// node the parent slot should point at (`replaced` — differs from
    /// `child` when a union was created).
    fn merge_into_slot(&mut self, child: NodeId, tag: TypeTag) -> Result<Merged, AdmError> {
        match self.live(child)? {
            SchemaNode::Union { children, .. } => {
                match children.iter().find(|(t, _)| *t == tag).map(|(_, id)| *id) {
                    Some(member) => {
                        self.live(member)?;
                        *self.nodes[member as usize].counter_mut() += 1;
                        *self.nodes[child as usize].counter_mut() += 1;
                        Ok(Merged { target: member, replaced: child })
                    }
                    None => {
                        let member = self.alloc(Self::fresh_node(tag));
                        if let SchemaNode::Union { counter, children } =
                            &mut self.nodes[child as usize]
                        {
                            children.push((tag, member));
                            *counter += 1;
                        }
                        Ok(Merged { target: member, replaced: child })
                    }
                }
            }
            node => match node.type_tag() {
                Some(old) if old == tag => {
                    *self.nodes[child as usize].counter_mut() += 1;
                    Ok(Merged { target: child, replaced: child })
                }
                // Type change: promote the slot to a union of {old, new}
                // (paper Fig 9b: age int → union(int, string)). A live
                // non-union node always has a tag.
                old_tag => {
                    let old_tag = old_tag.ok_or_else(|| mismatch("typed", child, Some(node)))?;
                    let old_counter = node.counter();
                    let member = self.alloc(Self::fresh_node(tag));
                    let union = self.alloc(SchemaNode::Union {
                        counter: old_counter + 1,
                        children: vec![(old_tag, child), (tag, member)],
                    });
                    Ok(Merged { target: member, replaced: union })
                }
            },
        }
    }

    // -----------------------------------------------------------------
    // Un-observation (anti-schema processing, §3.2.2)
    // -----------------------------------------------------------------

    /// Process one deleted record (decrements the root counter). Call
    /// [`Schema::prune`] after the walk.
    pub fn unobserve_root(&mut self) {
        let c = self.nodes[ROOT as usize].counter_mut();
        *c = c.saturating_sub(1);
    }

    /// Decrement the (name, tag) slot under `obj`; returns the node that was
    /// decremented so the caller can recurse into nested values. Returns
    /// `None` if the schema never saw this shape (tolerated: the engine may
    /// replay an anti-matter entry whose insert was annihilated earlier).
    pub fn unobserve_field(&mut self, obj: NodeId, name: &str, tag: TypeTag) -> Option<NodeId> {
        let fid = self.dict.find(name)?;
        let child = match &self.nodes[obj as usize] {
            SchemaNode::Object { fields, .. } => {
                fields.iter().find(|(f, _)| *f == fid).map(|(_, id)| *id)?
            }
            _ => return None,
        };
        self.unmerge_slot(child, tag)
    }

    /// Decrement the item slot of a collection for an item of type `tag`.
    pub fn unobserve_item(&mut self, coll: NodeId, tag: TypeTag) -> Option<NodeId> {
        let child = match &self.nodes[coll as usize] {
            SchemaNode::Collection { item, .. } => (*item)?,
            _ => return None,
        };
        self.unmerge_slot(child, tag)
    }

    fn unmerge_slot(&mut self, child: NodeId, tag: TypeTag) -> Option<NodeId> {
        match &self.nodes[child as usize] {
            SchemaNode::Union { children, .. } => {
                let member = children.iter().find(|(t, _)| *t == tag).map(|(_, id)| *id)?;
                {
                    let c = self.nodes[child as usize].counter_mut();
                    *c = c.saturating_sub(1);
                }
                let c = self.nodes[member as usize].counter_mut();
                *c = c.saturating_sub(1);
                Some(member)
            }
            node if node.type_tag() == Some(tag) => {
                let c = self.nodes[child as usize].counter_mut();
                *c = c.saturating_sub(1);
                Some(child)
            }
            _ => None,
        }
    }

    /// Remove zero-counter nodes and collapse single-child unions, starting
    /// from the root (call once per processed anti-schema batch). The paper's
    /// Fig 11: after the deletes, only surviving fields remain.
    pub fn prune(&mut self) {
        self.prune_node(ROOT);
    }

    /// Post-order prune. Returns the node that should occupy this slot
    /// (`None` ⇒ remove the slot entirely).
    #[expect(clippy::unreachable, reason = "pruning children never changes the parent's kind")]
    fn prune_node(&mut self, id: NodeId) -> Option<NodeId> {
        match self.nodes[id as usize].clone() {
            SchemaNode::Dead => None,
            SchemaNode::Scalar { counter, .. } => {
                if counter == 0 {
                    self.kill(id);
                    None
                } else {
                    Some(id)
                }
            }
            SchemaNode::Object { counter, fields } => {
                let mut new_fields = Vec::with_capacity(fields.len());
                for (fid, child) in fields {
                    if let Some(kept) = self.prune_node(child) {
                        new_fields.push((fid, kept));
                    }
                }
                if counter == 0 && id != ROOT {
                    for (_, c) in &new_fields {
                        self.kill_subtree(*c);
                    }
                    self.kill(id);
                    None
                } else {
                    match &mut self.nodes[id as usize] {
                        SchemaNode::Object { fields, .. } => *fields = new_fields,
                        _ => unreachable!(),
                    }
                    Some(id)
                }
            }
            SchemaNode::Collection { counter, item, .. } => {
                let new_item = item.and_then(|c| self.prune_node(c));
                if counter == 0 {
                    if let Some(c) = new_item {
                        self.kill_subtree(c);
                    }
                    self.kill(id);
                    None
                } else {
                    match &mut self.nodes[id as usize] {
                        SchemaNode::Collection { item, .. } => *item = new_item,
                        _ => unreachable!(),
                    }
                    Some(id)
                }
            }
            SchemaNode::Union { counter, children } => {
                let mut kept: Vec<(TypeTag, NodeId)> = Vec::with_capacity(children.len());
                for (tag, child) in children {
                    if let Some(k) = self.prune_node(child) {
                        kept.push((tag, k));
                    }
                }
                if counter == 0 || kept.is_empty() {
                    for (_, c) in &kept {
                        self.kill_subtree(*c);
                    }
                    self.kill(id);
                    None
                } else if kept.len() == 1 {
                    // Collapse: union(int) → int (paper §3.2.2 example).
                    self.kill(id);
                    Some(kept[0].1)
                } else {
                    match &mut self.nodes[id as usize] {
                        SchemaNode::Union { children, .. } => *children = kept,
                        _ => unreachable!(),
                    }
                    Some(id)
                }
            }
        }
    }

    fn kill_subtree(&mut self, id: NodeId) {
        match self.nodes[id as usize].clone() {
            SchemaNode::Dead => {}
            SchemaNode::Scalar { .. } => self.kill(id),
            SchemaNode::Object { fields, .. } => {
                for (_, c) in fields {
                    self.kill_subtree(c);
                }
                self.kill(id);
            }
            SchemaNode::Collection { item, .. } => {
                if let Some(c) = item {
                    self.kill_subtree(c);
                }
                self.kill(id);
            }
            SchemaNode::Union { children, .. } => {
                for (_, c) in children {
                    self.kill_subtree(c);
                }
                self.kill(id);
            }
        }
    }

    // -----------------------------------------------------------------
    // Whole-value walkers (used by the compactor's Value path and tests)
    // -----------------------------------------------------------------

    /// Observe a record's undeclared fields. `skip` returns true for
    /// declared root fields, whose metadata lives in the catalog (§3.1).
    pub fn observe_record(
        &mut self,
        fields: &[(String, Value)],
        skip: &dyn Fn(&str) -> bool,
    ) -> Result<(), AdmError> {
        self.observe_root();
        for (name, v) in fields {
            if skip(name) || v.is_missing() {
                continue;
            }
            let (_, node) = self.observe_field(ROOT, name, v.type_tag())?;
            self.observe_value_children(node, v)?;
        }
        Ok(())
    }

    fn observe_value_children(&mut self, node: NodeId, v: &Value) -> Result<(), AdmError> {
        match v {
            Value::Object(fields) => {
                for (name, child) in fields {
                    if child.is_missing() {
                        continue;
                    }
                    let (_, n) = self.observe_field(node, name, child.type_tag())?;
                    self.observe_value_children(n, child)?;
                }
            }
            Value::Array(items) | Value::Multiset(items) => {
                for item in items {
                    if item.is_missing() {
                        continue;
                    }
                    let n = self.observe_item(node, item.type_tag())?;
                    self.observe_value_children(n, item)?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Remove a record's contribution (anti-schema processing) and prune.
    pub fn remove_record(&mut self, fields: &[(String, Value)], skip: &dyn Fn(&str) -> bool) {
        self.unobserve_root();
        for (name, v) in fields {
            if skip(name) || v.is_missing() {
                continue;
            }
            if let Some(node) = self.unobserve_field(ROOT, name, v.type_tag()) {
                self.unobserve_value_children(node, v);
            }
        }
        self.prune();
    }

    fn unobserve_value_children(&mut self, node: NodeId, v: &Value) {
        match v {
            Value::Object(fields) => {
                for (name, child) in fields {
                    if child.is_missing() {
                        continue;
                    }
                    if let Some(n) = self.unobserve_field(node, name, child.type_tag()) {
                        self.unobserve_value_children(n, child);
                    }
                }
            }
            Value::Array(items) | Value::Multiset(items) => {
                for item in items {
                    if item.is_missing() {
                        continue;
                    }
                    if let Some(n) = self.unobserve_item(node, item.type_tag()) {
                        self.unobserve_value_children(n, item);
                    }
                }
            }
            _ => {}
        }
    }

    // -----------------------------------------------------------------
    // Lookup
    // -----------------------------------------------------------------

    /// Find a field's (id, node) under an object node.
    pub fn lookup_field(&self, obj: NodeId, name: &str) -> Option<(FieldNameId, NodeId)> {
        let fid = self.dict.find(name)?;
        match self.node(obj) {
            SchemaNode::Object { fields, .. } => {
                fields.iter().find(|(f, _)| *f == fid).map(|(f, id)| (*f, *id))
            }
            _ => None,
        }
    }

    /// Resolve a field name id to its string.
    pub fn field_name(&self, fid: FieldNameId) -> Option<&str> {
        self.dict.name(fid)
    }

    // -----------------------------------------------------------------
    // Superset check (merge-recency invariant, §3.1)
    // -----------------------------------------------------------------

    /// Does this schema describe at least everything `other` describes?
    /// (Counters are ignored; this is a pure structure/type containment.)
    pub fn is_superset_of(&self, other: &Schema) -> bool {
        self.covers(ROOT, other, ROOT)
    }

    fn covers(&self, mine: NodeId, other: &Schema, theirs: NodeId) -> bool {
        match (self.node(mine), other.node(theirs)) {
            (_, SchemaNode::Dead) => true,
            (SchemaNode::Scalar { tag: a, .. }, SchemaNode::Scalar { tag: b, .. }) => a == b,
            (SchemaNode::Object { fields: af, .. }, SchemaNode::Object { fields: bf, .. }) => {
                bf.iter().all(|(bfid, bchild)| {
                    let Some(name) = other.dict.name(*bfid) else {
                        return false;
                    };
                    let Some(afid) = self.dict.find(name) else {
                        return false;
                    };
                    af.iter()
                        .find(|(f, _)| *f == afid)
                        .is_some_and(|(_, achild)| self.covers(*achild, other, *bchild))
                })
            }
            (
                SchemaNode::Collection { tag: at, item: ai, .. },
                SchemaNode::Collection { tag: bt, item: bi, .. },
            ) => {
                at == bt
                    && match (ai, bi) {
                        (_, None) => true,
                        (Some(a), Some(b)) => self.covers(*a, other, *b),
                        (None, Some(_)) => false,
                    }
            }
            (SchemaNode::Union { children: ac, .. }, SchemaNode::Union { children: bc, .. }) => {
                bc.iter().all(|(bt, bchild)| {
                    ac.iter()
                        .find(|(at, _)| at == bt)
                        .is_some_and(|(_, achild)| self.covers(*achild, other, *bchild))
                })
            }
            // A union covers a single-typed node if one member covers it.
            (SchemaNode::Union { children: ac, .. }, b) => {
                let bt = b.type_tag();
                ac.iter()
                    .find(|(at, _)| Some(*at) == bt)
                    .is_some_and(|(_, achild)| self.covers(*achild, other, theirs))
            }
            _ => false,
        }
    }

    // -----------------------------------------------------------------
    // Persistence (component metadata page, §3.1)
    // -----------------------------------------------------------------

    /// Serialize (compacting tombstones away).
    #[expect(clippy::unreachable, reason = "`live` holds no dead node")]
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(MAGIC);
        self.dict.serialize(&mut out);
        // Remap live node ids densely, root first.
        let mut remap = vec![u32::MAX; self.nodes.len()];
        let mut live = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.is_dead() {
                remap[i] = live.len() as u32;
                live.push(i);
            }
        }
        varint::write_u64(&mut out, live.len() as u64);
        for &i in &live {
            match &self.nodes[i] {
                SchemaNode::Scalar { tag, counter } => {
                    out.push(0);
                    varint::write_u64(&mut out, *counter);
                    out.push(*tag as u8);
                }
                SchemaNode::Object { counter, fields } => {
                    out.push(1);
                    varint::write_u64(&mut out, *counter);
                    varint::write_u64(&mut out, fields.len() as u64);
                    for (fid, child) in fields {
                        varint::write_u64(&mut out, *fid as u64);
                        varint::write_u64(&mut out, remap[*child as usize] as u64);
                    }
                }
                SchemaNode::Collection { tag, counter, item } => {
                    out.push(2);
                    varint::write_u64(&mut out, *counter);
                    out.push(*tag as u8);
                    match item {
                        None => out.push(0),
                        Some(c) => {
                            out.push(1);
                            varint::write_u64(&mut out, remap[*c as usize] as u64);
                        }
                    }
                }
                SchemaNode::Union { counter, children } => {
                    out.push(3);
                    varint::write_u64(&mut out, *counter);
                    varint::write_u64(&mut out, children.len() as u64);
                    for (tag, child) in children {
                        out.push(*tag as u8);
                        varint::write_u64(&mut out, remap[*child as usize] as u64);
                    }
                }
                SchemaNode::Dead => unreachable!("live list"),
            }
        }
        out
    }

    /// Parse a serialized schema.
    pub fn deserialize(buf: &[u8]) -> Option<Schema> {
        let buf = buf.strip_prefix(MAGIC.as_slice())?;
        let (dict, mut pos) = FieldNameDictionary::deserialize(buf)?;
        let (count, n) = varint::read_u64(&buf[pos..])?;
        pos += n;
        let mut nodes = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let kind = *buf.get(pos)?;
            pos += 1;
            let (counter, n) = varint::read_u64(&buf[pos..])?;
            pos += n;
            let node = match kind {
                0 => {
                    let tag = TypeTag::from_u8(*buf.get(pos)?).ok()?;
                    pos += 1;
                    SchemaNode::Scalar { tag, counter }
                }
                1 => {
                    let (nf, n) = varint::read_u64(&buf[pos..])?;
                    pos += n;
                    let mut fields = Vec::with_capacity(nf as usize);
                    for _ in 0..nf {
                        let (fid, n) = varint::read_u64(&buf[pos..])?;
                        pos += n;
                        let (child, n) = varint::read_u64(&buf[pos..])?;
                        pos += n;
                        fields.push((fid as FieldNameId, child as NodeId));
                    }
                    SchemaNode::Object { counter, fields }
                }
                2 => {
                    let tag = TypeTag::from_u8(*buf.get(pos)?).ok()?;
                    pos += 1;
                    let has_item = *buf.get(pos)?;
                    pos += 1;
                    let item = if has_item == 1 {
                        let (child, n) = varint::read_u64(&buf[pos..])?;
                        pos += n;
                        Some(child as NodeId)
                    } else {
                        None
                    };
                    SchemaNode::Collection { tag, counter, item }
                }
                3 => {
                    let (nc, n) = varint::read_u64(&buf[pos..])?;
                    pos += n;
                    let mut children = Vec::with_capacity(nc as usize);
                    for _ in 0..nc {
                        let tag = TypeTag::from_u8(*buf.get(pos)?).ok()?;
                        pos += 1;
                        let (child, n) = varint::read_u64(&buf[pos..])?;
                        pos += n;
                        children.push((tag, child as NodeId));
                    }
                    SchemaNode::Union { counter, children }
                }
                _ => return None,
            };
            nodes.push(node);
        }
        if nodes.is_empty() || pos != buf.len() {
            return None;
        }
        Some(Schema { nodes, dict, free: Vec::new() })
    }
}

struct Merged {
    /// Node describing the observed tag (recursion target).
    target: NodeId,
    /// Node the parent slot should now reference.
    replaced: NodeId,
}

/// An observation reached node `id` expecting a `want` node and found
/// `found` (`None`: no such node).
fn mismatch(want: &str, id: NodeId, found: Option<&SchemaNode>) -> AdmError {
    AdmError::corrupt(format!("schema node {id} is not a {want} node: {found:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_adm::parse;

    fn skip_id(name: &str) -> bool {
        name == "id"
    }

    fn obs(schema: &mut Schema, text: &str) {
        let v = parse(text).unwrap();
        let Value::Object(fields) = v else { panic!("record must be object") };
        schema.observe_record(&fields, &skip_id).unwrap();
    }

    fn unobs(schema: &mut Schema, text: &str) {
        let v = parse(text).unwrap();
        let Value::Object(fields) = v else { panic!("record must be object") };
        schema.remove_record(&fields, &skip_id);
    }

    /// Paper Fig 9a: first flush infers {name: string, age: int}.
    #[test]
    fn fig9a_first_flush() {
        let mut s = Schema::new();
        obs(&mut s, r#"{"id": 0, "name": "Kim", "age": 26}"#);
        obs(&mut s, r#"{"id": 1, "name": "John", "age": 22}"#);
        let (_, name) = s.lookup_field(s.root(), "name").unwrap();
        assert_eq!(s.node(name), &SchemaNode::Scalar { tag: TypeTag::String, counter: 2 });
        let (_, age) = s.lookup_field(s.root(), "age").unwrap();
        assert_eq!(s.node(age), &SchemaNode::Scalar { tag: TypeTag::Int64, counter: 2 });
        assert!(s.lookup_field(s.root(), "id").is_none(), "declared fields excluded");
        assert_eq!(s.record_count(), 2);
    }

    /// Paper Fig 9b: age becomes union(int, string); missing age adds
    /// nothing.
    #[test]
    fn fig9b_union_promotion() {
        let mut s = Schema::new();
        obs(&mut s, r#"{"id": 0, "name": "Kim", "age": 26}"#);
        obs(&mut s, r#"{"id": 1, "name": "John", "age": 22}"#);
        obs(&mut s, r#"{"id": 2, "name": "Ann"}"#);
        obs(&mut s, r#"{"id": 3, "name": "Bob", "age": "old"}"#);
        let (_, age) = s.lookup_field(s.root(), "age").unwrap();
        let SchemaNode::Union { counter, children } = s.node(age) else {
            panic!("age should be a union, got {:?}", s.node(age));
        };
        assert_eq!(*counter, 3);
        assert_eq!(children.len(), 2);
        assert!(s.node(age).matches_tag(TypeTag::Int64));
        assert!(s.node(age).matches_tag(TypeTag::String));
        let int_member = children.iter().find(|(t, _)| *t == TypeTag::Int64).unwrap().1;
        assert_eq!(s.node(int_member).counter(), 2);
        let (_, name) = s.lookup_field(s.root(), "name").unwrap();
        assert_eq!(s.node(name).counter(), 4);
    }

    /// Paper Fig 10: the nested record plus five simple records.
    #[test]
    fn fig10_nested_inference() {
        let mut s = Schema::new();
        obs(
            &mut s,
            r#"{
            "id": 1, "name": "Ann",
            "dependents": {{ {"name": "Bob", "age": 6}, {"name": "Carol", "age": 10} }},
            "employment_date": date("2018-09-20"),
            "branch_location": point(24.0, -56.12),
            "working_shifts": [[8, 16], [9, 17], [10, 18], "on_call"]
        }"#,
        );
        for i in 2..7 {
            obs(&mut s, &format!(r#"{{"id": {i}, "name": "N{i}"}}"#));
        }
        // name: counter 6 (Fig 10b).
        let (_, name) = s.lookup_field(s.root(), "name").unwrap();
        assert_eq!(s.node(name).counter(), 6);
        // dependents: multiset, counter 1, item object counter 2.
        let (_, deps) = s.lookup_field(s.root(), "dependents").unwrap();
        let SchemaNode::Collection { tag, counter, item } = s.node(deps) else { panic!() };
        assert_eq!(*tag, TypeTag::Multiset);
        assert_eq!(*counter, 1);
        let item = item.unwrap();
        assert_eq!(s.node(item).counter(), 2);
        // Inner object has name (2) and age (2); "name" shares the
        // dictionary id with the root's "name" (Fig 10c canonicalization).
        let (inner_name_fid, inner_name) = s.lookup_field(item, "name").unwrap();
        assert_eq!(s.node(inner_name).counter(), 2);
        let (root_name_fid, _) = s.lookup_field(s.root(), "name").unwrap();
        assert_eq!(inner_name_fid, root_name_fid);
        // working_shifts: array of union(array(int), string); union
        // counter 4, inner array counter 3, int counter 6.
        let (_, shifts) = s.lookup_field(s.root(), "working_shifts").unwrap();
        let SchemaNode::Collection { item: Some(u), .. } = s.node(shifts) else { panic!() };
        let SchemaNode::Union { counter, children } = s.node(*u) else {
            panic!("expected union item, got {:?}", s.node(*u));
        };
        assert_eq!(*counter, 4);
        let inner_arr = children.iter().find(|(t, _)| *t == TypeTag::Array).unwrap().1;
        assert_eq!(s.node(inner_arr).counter(), 3);
        let SchemaNode::Collection { item: Some(int_node), .. } = s.node(inner_arr) else {
            panic!()
        };
        assert_eq!(s.node(*int_node).counter(), 6);
        assert_eq!(s.dict().len(), 6, "six distinct field names (Fig 10c)");
    }

    /// Paper Fig 11: deleting the nested record leaves only name(5).
    #[test]
    fn fig11_delete_prunes() {
        let mut s = Schema::new();
        let nested = r#"{
            "id": 1, "name": "Ann",
            "dependents": {{ {"name": "Bob", "age": 6}, {"name": "Carol", "age": 10} }},
            "employment_date": date("2018-09-20"),
            "branch_location": point(24.0, -56.12),
            "working_shifts": [[8, 16], [9, 17], [10, 18], "on_call"]
        }"#;
        obs(&mut s, nested);
        for i in 2..7 {
            obs(&mut s, &format!(r#"{{"id": {i}, "name": "N{i}"}}"#));
        }
        unobs(&mut s, nested);
        // Only `name` survives, counter 5.
        let (_, name) = s.lookup_field(s.root(), "name").unwrap();
        assert_eq!(s.node(name).counter(), 5);
        assert!(s.lookup_field(s.root(), "dependents").is_none());
        assert!(s.lookup_field(s.root(), "working_shifts").is_none());
        assert!(s.lookup_field(s.root(), "employment_date").is_none());
        assert!(s.lookup_field(s.root(), "branch_location").is_none());
        assert_eq!(s.num_live_nodes(), 2, "root + name scalar");
        assert_eq!(s.record_count(), 5);
    }

    /// §3.2.2: deleting the only string-typed age collapses the union back
    /// to int.
    #[test]
    fn union_collapses_on_delete() {
        let mut s = Schema::new();
        obs(&mut s, r#"{"id": 0, "age": 26}"#);
        obs(&mut s, r#"{"id": 3, "age": "old"}"#);
        unobs(&mut s, r#"{"id": 3, "age": "old"}"#);
        let (_, age) = s.lookup_field(s.root(), "age").unwrap();
        assert_eq!(s.node(age), &SchemaNode::Scalar { tag: TypeTag::Int64, counter: 1 });
    }

    #[test]
    fn insert_delete_batch_restores_empty_schema() {
        let mut s = Schema::new();
        let records = [
            r#"{"id": 0, "a": 1, "b": {"c": [1, 2.5]}}"#,
            r#"{"id": 1, "a": "x", "d": {{null, true}}}"#,
            r#"{"id": 2, "b": {"c": ["s"]}}"#,
        ];
        for r in &records {
            obs(&mut s, r);
        }
        for r in &records {
            unobs(&mut s, r);
        }
        assert_eq!(s.num_live_nodes(), 1, "only the root remains");
        assert_eq!(s.record_count(), 0);
        // Dictionary is intentionally append-only.
        assert!(s.dict().len() >= 4);
    }

    #[test]
    fn arena_reuses_freed_slots() {
        let mut s = Schema::new();
        obs(&mut s, r#"{"id": 0, "x": 1}"#);
        unobs(&mut s, r#"{"id": 0, "x": 1}"#);
        let before = s.nodes.len();
        obs(&mut s, r#"{"id": 1, "y": 2}"#);
        assert_eq!(s.nodes.len(), before, "freed slot should be reused");
    }

    #[test]
    fn superset_of_older_schema() {
        let mut old = Schema::new();
        obs(&mut old, r#"{"id": 0, "name": "Kim", "age": 26}"#);
        let mut new = old.clone();
        obs(&mut new, r#"{"id": 3, "name": "Bob", "age": "old", "extra": [1]}"#);
        assert!(new.is_superset_of(&old), "newer schema covers older");
        assert!(!old.is_superset_of(&new));
        assert!(new.is_superset_of(&new));
        assert!(old.is_superset_of(&Schema::new()));
    }

    #[test]
    fn serialize_roundtrip_preserves_structure_and_counts() {
        let mut s = Schema::new();
        obs(&mut s, r#"{"id": 1, "name": "Ann", "deps": [{"n": "Bob"}], "shift": [[1], "on"]}"#);
        obs(&mut s, r#"{"id": 2, "name": "Cat", "age": 9}"#);
        // Create tombstones so remapping is exercised.
        unobs(&mut s, r#"{"id": 2, "name": "Cat", "age": 9}"#);
        obs(&mut s, r#"{"id": 3, "name": "Dan", "age": "nine"}"#);
        let bytes = s.serialize();
        let back = Schema::deserialize(&bytes).unwrap();
        assert!(back.is_superset_of(&s) && s.is_superset_of(&back));
        assert_eq!(back.record_count(), s.record_count());
        let (_, n1) = s.lookup_field(s.root(), "name").unwrap();
        let (_, n2) = back.lookup_field(back.root(), "name").unwrap();
        assert_eq!(s.node(n1).counter(), back.node(n2).counter());
        assert_eq!(back.num_live_nodes(), s.num_live_nodes());
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(Schema::deserialize(b"").is_none());
        assert!(Schema::deserialize(b"XXXX123").is_none());
        let mut s = Schema::new();
        obs(&mut s, r#"{"id": 1, "a": 1}"#);
        let bytes = s.serialize();
        assert!(Schema::deserialize(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn unobserve_tolerates_unknown_shapes() {
        let mut s = Schema::new();
        obs(&mut s, r#"{"id": 0, "a": 1}"#);
        // Deleting a shape never observed must not panic or underflow.
        unobs(&mut s, r#"{"id": 9, "zz": "never-seen", "a": "wrong-type"}"#);
        let (_, a) = s.lookup_field(s.root(), "a").unwrap();
        assert_eq!(s.node(a).counter(), 1);
    }

    /// A slot hint only saves the lookup: hits, misses, stale and
    /// out-of-range hints all leave the schema `observe_field` would.
    #[test]
    fn observe_field_at_equals_observe_field() {
        let (mut hinted, mut plain) = (Schema::new(), Schema::new());
        let records: [&[(&str, TypeTag)]; 4] = [
            &[("a", TypeTag::Int64), ("b", TypeTag::String), ("c", TypeTag::Object)],
            &[("a", TypeTag::Int64), ("b", TypeTag::String), ("c", TypeTag::Object)],
            &[("b", TypeTag::Int64), ("a", TypeTag::Int64), ("d", TypeTag::Null)],
            &[("a", TypeTag::Int64), ("c", TypeTag::Array), ("b", TypeTag::String)],
        ];
        let mut hits = 0;
        for fields in records {
            let mut slot = 0;
            for &(name, tag) in fields {
                let before = slot;
                let got = hinted.observe_field_at(ROOT, &mut slot, name, tag).unwrap();
                assert_eq!(got, plain.observe_field(ROOT, name, tag).unwrap());
                hits += (slot == before + 1) as usize;
                let SchemaNode::Object { fields, .. } = hinted.node(ROOT) else { panic!() };
                assert_eq!(fields[slot - 1].0, got.0, "slot ends one past the field");
            }
            assert_eq!(hinted.serialize(), plain.serialize());
        }
        assert!(hits >= 6, "records shaped like the last one hit the hint ({hits})");
        // A hint past the end of the list is a miss, not an error.
        let mut slot = 99;
        hinted.observe_field_at(ROOT, &mut slot, "a", TypeTag::Int64).unwrap();
        assert_eq!(slot, 1);
    }

    /// A corrupt schema blob can name a scalar "object" as a field's node;
    /// observing through it is a typed error, not a panic.
    #[test]
    fn observing_a_mismatched_node_is_a_typed_error() {
        let mut dict = FieldNameDictionary::new();
        let a = dict.get_or_insert("a");
        let forged = Schema {
            nodes: vec![
                SchemaNode::Object { counter: 1, fields: vec![(a, 1)] },
                SchemaNode::Scalar { tag: TypeTag::Object, counter: 1 },
            ],
            dict,
            free: Vec::new(),
        };
        let mut s = Schema::deserialize(&forged.serialize()).unwrap();
        let (_, node) = s.observe_field(ROOT, "a", TypeTag::Object).unwrap();
        let err = s.observe_field(node, "b", TypeTag::Int64).unwrap_err();
        assert!(matches!(err, AdmError::Corrupt(_)), "{err:?}");
        let mut slot = 0;
        assert!(s.observe_field_at(node, &mut slot, "b", TypeTag::Int64).is_err());
        assert!(s.observe_item(node, TypeTag::Int64).is_err());
        assert!(s.observe_item(ROOT, TypeTag::Int64).is_err());
        assert!(s.observe_field(77, "b", TypeTag::Int64).is_err(), "no such node");
        let text = parse(r#"{"a": {"b": 1}}"#).unwrap();
        let Value::Object(fields) = text else { panic!("not an object") };
        assert!(s.observe_record(&fields, &skip_id).is_err());
    }

    #[test]
    fn empty_record_only_counts_root() {
        let mut s = Schema::new();
        obs(&mut s, r#"{"id": 0}"#);
        assert_eq!(s.record_count(), 1);
        assert_eq!(s.num_live_nodes(), 1);
    }
}
