// Fixture: a store adapter that brings back single-item bodies, and the
// forms the rule must leave alone.
pub struct Forked {
    inner: Inner,
}

impl BlockStore for Forked {
    fn len(&self) -> usize {
        1
    }
    fn put(&self, provider: usize, id: BlockId, data: Bytes) -> Result<()> {
        self.inner.put(provider, id, data)
    }
    fn get_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        self.inner.get_many(provider, ids)
    }
}

impl MetaStore for Forked {
    fn delete(&self, key: &NodeKey) -> bool {
        self.inner.delete(key)
    }
    // lint:allow(vectored-only): fixture override with a documented reason
    fn get(&self, key: &NodeKey) -> Result<TreeNode> {
        self.inner.get(key)
    }
    fn put_many(&self, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        self.inner.put_many(items)
    }
}

// An inherent one-item convenience is not a port method.
impl Forked {
    pub fn put(&self, id: BlockId, data: Bytes) {
        self.inner.put_many(&[(id, data)]);
    }
}

// Nor is another trait's `get`.
impl VersionIndex for Forked {
    fn get(&self, version: u64) -> Option<u64> {
        self.inner.lookup(version)
    }
}

#[cfg(test)]
mod tests {
    struct Spy;
    impl BlockStore for Spy {
        fn put(&self, provider: usize, id: BlockId, data: Bytes) -> Result<()> {
            Ok(())
        }
    }
}
