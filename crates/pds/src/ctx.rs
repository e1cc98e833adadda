//! The write context each structure's one insertion body is generic
//! over (see the crate docs, "One write path"): [`TxCtx`] runs the body,
//! and every `remove_tx`, in a [`pstore::Tx`]; [`RawCtx`] runs the same
//! stores and allocations in the same order, and its `log`, `fence` and
//! `persist` compile away.

use crate::arena::NodeArena;
use crate::error::Result;
use pi_core::PtrRepr;
use pstore::{ObjectStore, Tx};

/// Allocation, freeing, undo logging and the flush half of the
/// destination-flush discipline for one insert or `remove_tx`.
///
/// Logging is batched: `log` snapshots a range without making the
/// snapshot durable, and `fence` must run before the first store to any
/// range logged so far. `alloc` and `free` join the batch in a
/// transaction (allocator entries), so an operation allocates and frees
/// everything before its one `fence`.
pub(crate) trait Ctx {
    fn alloc(&mut self, arena: &NodeArena, size: usize) -> Result<*mut u8>;
    /// Frees `node`, which the operation unlinks by its publish.
    ///
    /// # Safety
    ///
    /// `node` is a `size`-byte node of the structure, unreachable after
    /// the operation's publish.
    unsafe fn free(&mut self, node: *mut u8, size: usize) -> Result<()>;
    fn log(&mut self, addr: usize, len: usize) -> Result<()>;
    fn fence(&mut self);
    fn persist(&self, addr: usize, len: usize);
    /// Ends the operation once its publish is done.
    fn finish(self, arena: &NodeArena) -> Result<()>;
}

/// Raw mode keeps the node an operation frees until [`Ctx::finish`],
/// which runs after the publish: the block goes back to its region only
/// once nothing points at it.
#[derive(Default)]
pub(crate) struct RawCtx {
    freed: Option<(*mut u8, usize)>,
}

impl Ctx for RawCtx {
    fn alloc(&mut self, arena: &NodeArena, size: usize) -> Result<*mut u8> {
        Ok(arena.alloc(size)?.as_ptr())
    }
    unsafe fn free(&mut self, node: *mut u8, size: usize) -> Result<()> {
        debug_assert!(self.freed.is_none(), "one node freed per operation");
        self.freed = Some((node, size));
        Ok(())
    }
    fn log(&mut self, _addr: usize, _len: usize) -> Result<()> {
        Ok(())
    }
    fn fence(&mut self) {}
    fn persist(&self, _addr: usize, _len: usize) {}
    fn finish(self, arena: &NodeArena) -> Result<()> {
        if let Some((node, size)) = self.freed {
            // SAFETY: `Ctx::free`'s contract; the publish is done.
            unsafe { arena.dealloc(std::ptr::NonNull::new_unchecked(node), size)? };
        }
        Ok(())
    }
}

/// One undo-logged transaction of `store`, committed by [`Ctx::finish`]
/// and aborted (rolled back) if dropped before it.
pub(crate) struct TxCtx<'s> {
    tx: Tx<'s>,
}

impl<'s> TxCtx<'s> {
    pub(crate) fn begin(store: &'s ObjectStore) -> TxCtx<'s> {
        TxCtx { tx: store.begin() }
    }
}

impl Ctx for TxCtx<'_> {
    fn alloc(&mut self, _arena: &NodeArena, size: usize) -> Result<*mut u8> {
        Ok(self.tx.alloc(0, size)?.as_ptr())
    }
    unsafe fn free(&mut self, node: *mut u8, size: usize) -> Result<()> {
        Ok(self.tx.free(std::ptr::NonNull::new_unchecked(node), size)?)
    }
    fn log(&mut self, addr: usize, len: usize) -> Result<()> {
        Ok(self.tx.log_range(addr, len)?)
    }
    fn fence(&mut self) {
        self.tx.barrier();
    }
    fn persist(&self, addr: usize, len: usize) {
        nvmsim::latency::persist(addr, len);
    }
    fn finish(self, _arena: &NodeArena) -> Result<()> {
        self.tx.commit();
        Ok(())
    }
}

/// The tail of an insert that links one node into the empty `slot` it
/// searched for (bst, hashset): `slot` and `len` are the whole logged
/// batch; `init` fills the fresh node, which is flushed before the one
/// store into `slot` publishes it.
///
/// # Safety
///
/// `slot` and the length word `len` are mapped and written by nobody
/// else; `init` writes every field of the node.
pub(crate) unsafe fn link_fresh<C: Ctx, R: PtrRepr>(
    mut ctx: C,
    arena: &NodeArena,
    slot: *mut R,
    len: *mut u64,
    size: usize,
    init: impl FnOnce(*mut u8),
) -> Result<()> {
    ctx.log(slot as usize, std::mem::size_of::<R>())?;
    ctx.log(len as usize, 8)?;
    let node = ctx.alloc(arena, size)?;
    ctx.fence();
    init(node);
    ctx.persist(node as usize, size);
    (*slot).store(node as usize);
    ctx.persist(slot as usize, std::mem::size_of::<R>());
    *len += 1;
    ctx.persist(len as usize, 8);
    ctx.finish(arena)
}

/// The tail of a remove, the mirror of [`link_fresh`]: `slot`, `len` and
/// the free of `node` are the batch; after the fence `slot` takes `next`,
/// then `len` drops, each flushed. A `refill` copy `(dst, src, n)` (a bst
/// node taking its successor's key and payload) joins the batch and is
/// flushed before the store into `slot`.
///
/// # Safety
///
/// `slot` holds `node`, unreachable once `slot` holds `next`; `slot`,
/// `len` and `refill`'s two disjoint ranges are written by nobody else.
pub(crate) unsafe fn unlink_free<C: Ctx, R: PtrRepr, N>(
    mut ctx: C,
    arena: &NodeArena,
    slot: *mut R,
    len: *mut u64,
    node: *mut N,
    next: usize,
    refill: Option<(*mut u8, *const u8, usize)>,
) -> Result<()> {
    if let Some((dst, _, n)) = refill {
        ctx.log(dst as usize, n)?;
    }
    ctx.log(slot as usize, std::mem::size_of::<R>())?;
    ctx.log(len as usize, 8)?;
    ctx.free(node as *mut u8, std::mem::size_of::<N>())?;
    ctx.fence();
    if let Some((dst, src, n)) = refill {
        std::ptr::copy_nonoverlapping(src, dst, n);
        ctx.persist(dst as usize, n);
    }
    (*slot).store(next);
    ctx.persist(slot as usize, std::mem::size_of::<R>());
    *len -= 1;
    ctx.persist(len as usize, 8);
    ctx.finish(arena)
}
