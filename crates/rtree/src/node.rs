//! Arena-allocated R-tree nodes.

use crate::rect::Rect;

/// Index of a node in the tree arena.
pub type NodeId = usize;

/// Children of a node: subtree ids or leaf rows.
#[derive(Debug, Clone)]
pub enum Children {
    /// Internal node: child node ids.
    Internal(Vec<NodeId>),
    /// Leaf node: indices into the tree's point/item arrays.
    Leaf(Vec<u32>),
}

/// One R-tree node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Minimum bounding rectangle of everything below.
    pub rect: Rect,
    /// Children.
    pub children: Children,
}

impl Node {
    /// Number of direct children / entries.
    pub fn fanout(&self) -> usize {
        match &self.children {
            Children::Internal(c) => c.len(),
            Children::Leaf(rows) => rows.len(),
        }
    }
}
