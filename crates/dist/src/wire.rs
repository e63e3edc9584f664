//! Frame encoding for [`Msg`] — how the Figure 11–14 message vocabulary
//! crosses real sockets.
//!
//! The simulated plane moves `Msg` values by `clone()`; the TCP plane
//! ([`ceh_net::TcpPlane`]) needs bytes. This module implements
//! [`WireMsg`] for [`Msg`] with the same hand-rolled, dependency-free
//! discipline as the storage WAL: fixed little-endian scalars,
//! length-prefixed sequences, one tag byte per enum, and a decoder that
//! answers every malformed input with a [`WireError`] instead of a
//! panic. The payload travels inside a CRC-checked frame
//! ([`ceh_net::wire`]), so decoding here only has to be *strict*, not
//! corruption-tolerant: any leftover or missing bytes are protocol
//! errors that sever the connection.
//!
//! Compatibility is guarded by the frame header's version byte, not by
//! this encoding — a node that changes the layout below must bump
//! [`ceh_net::wire::WIRE_VERSION`].

use ceh_locks::LockManager;
use ceh_net::wire::{WireError, WireMsg, WireReader, WireWriter};
use ceh_net::PortId;
use ceh_obs::{SpanId, TraceCtx};
use ceh_types::bucket::Bucket;
use ceh_types::{
    BucketLink, DeleteOutcome, InsertOutcome, Key, ManagerId, PageId, Pseudokey, Record, Value,
};

use crate::msg::{Msg, OpEnvelope, OpKind, UserOutcome};
use crate::replica::{DirEntry, DirUpdate};

// One tag byte per `Msg` variant, in declaration order.
const TAG_REQUEST: u8 = 1;
const TAG_USER_REPLY: u8 = 2;
const TAG_BUCKET_OP: u8 = 3;
const TAG_WRONGBUCKET: u8 = 4;
const TAG_WRONGBUCKET_ACK: u8 = 5;
const TAG_BUCKETDONE: u8 = 6;
const TAG_UPDATE: u8 = 7;
const TAG_COPYUPDATE: u8 = 8;
const TAG_COPY_ACK: u8 = 9;
const TAG_SPLITBUCKET: u8 = 10;
const TAG_SPLITREPLY: u8 = 11;
const TAG_MERGEDOWN: u8 = 12;
const TAG_MDREPLY: u8 = 13;
const TAG_MERGEUP: u8 = 14;
const TAG_MUREPLY: u8 = 15;
const TAG_GOAHEAD: u8 = 16;
const TAG_GARBAGE_COLLECT: u8 = 17;
const TAG_GC_ACK: u8 = 18;
const TAG_STATUS: u8 = 19;
const TAG_STATUS_REPLY: u8 = 20;
const TAG_SHUTDOWN: u8 = 21;
const TAG_STATS_REQUEST: u8 = 22;
const TAG_STATS_REPLY: u8 = 23;

fn put_ctx(w: &mut WireWriter, ctx: TraceCtx) {
    w.u64(ctx.trace_id);
    w.u64(ctx.parent_span.0);
}

fn get_ctx(r: &mut WireReader<'_>) -> Result<TraceCtx, WireError> {
    Ok(TraceCtx {
        trace_id: r.u64()?,
        parent_span: SpanId(r.u64()?),
    })
}

fn put_op(w: &mut WireWriter, op: OpKind) {
    w.u8(match op {
        OpKind::Find => 0,
        OpKind::Insert => 1,
        OpKind::Delete => 2,
    });
}

fn get_op(r: &mut WireReader<'_>) -> Result<OpKind, WireError> {
    match r.u8()? {
        0 => Ok(OpKind::Find),
        1 => Ok(OpKind::Insert),
        2 => Ok(OpKind::Delete),
        _ => Err(WireError::Malformed("unknown OpKind tag")),
    }
}

fn put_outcome(w: &mut WireWriter, outcome: UserOutcome) {
    match outcome {
        UserOutcome::Found(None) => w.u8(0),
        UserOutcome::Found(Some(v)) => {
            w.u8(1);
            w.u64(v.0);
        }
        UserOutcome::Inserted(InsertOutcome::Inserted) => w.u8(2),
        UserOutcome::Inserted(InsertOutcome::AlreadyPresent) => w.u8(3),
        UserOutcome::Deleted(DeleteOutcome::Deleted) => w.u8(4),
        UserOutcome::Deleted(DeleteOutcome::NotFound) => w.u8(5),
        UserOutcome::Failed => w.u8(6),
    }
}

fn get_outcome(r: &mut WireReader<'_>) -> Result<UserOutcome, WireError> {
    Ok(match r.u8()? {
        0 => UserOutcome::Found(None),
        1 => UserOutcome::Found(Some(Value(r.u64()?))),
        2 => UserOutcome::Inserted(InsertOutcome::Inserted),
        3 => UserOutcome::Inserted(InsertOutcome::AlreadyPresent),
        4 => UserOutcome::Deleted(DeleteOutcome::Deleted),
        5 => UserOutcome::Deleted(DeleteOutcome::NotFound),
        6 => UserOutcome::Failed,
        _ => return Err(WireError::Malformed("unknown UserOutcome tag")),
    })
}

fn put_opt_outcome(w: &mut WireWriter, outcome: Option<UserOutcome>) {
    match outcome {
        None => w.bool(false),
        Some(o) => {
            w.bool(true);
            put_outcome(w, o);
        }
    }
}

fn get_opt_outcome(r: &mut WireReader<'_>) -> Result<Option<UserOutcome>, WireError> {
    if r.bool()? {
        Ok(Some(get_outcome(r)?))
    } else {
        Ok(None)
    }
}

fn put_env(w: &mut WireWriter, env: &OpEnvelope) {
    put_op(w, env.op);
    w.u64(env.key.0);
    w.u64(env.value.0);
    w.u64(env.txn);
    w.u64(env.page.0);
    w.u64(env.user_port.0);
    w.u64(env.dirmgr_port.0);
    w.u64(env.pseudokey.0);
    w.u32(env.attempt);
    w.u64(env.req_id);
    put_ctx(w, env.ctx);
}

/// A page id the receiving bucket manager will lock: beyond the lock
/// manager's range it can name no page, and locking it would panic.
fn get_lockable_page(r: &mut WireReader<'_>) -> Result<PageId, WireError> {
    let page = r.u64()?;
    if page >= LockManager::MAX_PAGES {
        return Err(WireError::Malformed(
            "page id beyond the lock manager's range",
        ));
    }
    Ok(PageId(page))
}

fn get_env(r: &mut WireReader<'_>) -> Result<OpEnvelope, WireError> {
    Ok(OpEnvelope {
        op: get_op(r)?,
        key: Key(r.u64()?),
        value: Value(r.u64()?),
        txn: r.u64()?,
        page: get_lockable_page(r)?,
        user_port: PortId(r.u64()?),
        dirmgr_port: PortId(r.u64()?),
        pseudokey: Pseudokey(r.u64()?),
        attempt: r.u32()?,
        req_id: r.u64()?,
        ctx: get_ctx(r)?,
    })
}

fn put_link(w: &mut WireWriter, link: BucketLink) {
    w.u32(link.manager.0);
    w.u64(link.page.0);
}

fn get_link(r: &mut WireReader<'_>) -> Result<BucketLink, WireError> {
    let manager = ManagerId(r.u32()?);
    let page = PageId(r.u64()?);
    Ok(BucketLink { manager, page })
}

fn put_update(w: &mut WireWriter, update: &DirUpdate) {
    match update {
        DirUpdate::Split {
            pseudokey,
            old_localdepth,
            expected_version,
            new_version,
            new_bucket,
        } => {
            w.u8(0);
            w.u64(pseudokey.0);
            w.u32(*old_localdepth);
            w.u64(*expected_version);
            w.u64(*new_version);
            put_link(w, *new_bucket);
        }
        DirUpdate::Merge {
            pseudokey,
            old_localdepth,
            expected_v0,
            expected_v1,
            new_version,
            merged,
            garbage,
        } => {
            w.u8(1);
            w.u64(pseudokey.0);
            w.u32(*old_localdepth);
            w.u64(*expected_v0);
            w.u64(*expected_v1);
            w.u64(*new_version);
            put_link(w, *merged);
            put_link(w, *garbage);
        }
    }
}

fn get_update(r: &mut WireReader<'_>) -> Result<DirUpdate, WireError> {
    match r.u8()? {
        0 => Ok(DirUpdate::Split {
            pseudokey: Pseudokey(r.u64()?),
            old_localdepth: r.u32()?,
            expected_version: r.u64()?,
            new_version: r.u64()?,
            new_bucket: get_link(r)?,
        }),
        1 => Ok(DirUpdate::Merge {
            pseudokey: Pseudokey(r.u64()?),
            old_localdepth: r.u32()?,
            expected_v0: r.u64()?,
            expected_v1: r.u64()?,
            new_version: r.u64()?,
            merged: get_link(r)?,
            garbage: get_link(r)?,
        }),
        _ => Err(WireError::Malformed("unknown DirUpdate tag")),
    }
}

fn put_bucket(w: &mut WireWriter, b: &Bucket) {
    w.u32(b.localdepth);
    w.u64(b.commonbits);
    w.u64(b.next.0);
    w.u32(b.next_mgr.0);
    w.u64(b.prev.0);
    w.u32(b.prev_mgr.0);
    w.u64(b.version);
    w.u32(b.records.len() as u32);
    for rec in &b.records {
        w.u64(rec.key.0);
        w.u64(rec.value.0);
    }
}

fn get_bucket(r: &mut WireReader<'_>) -> Result<Bucket, WireError> {
    let localdepth = r.u32()?;
    let commonbits = r.u64()?;
    let next = PageId(r.u64()?);
    let next_mgr = ManagerId(r.u32()?);
    let prev = PageId(r.u64()?);
    let prev_mgr = ManagerId(r.u32()?);
    let version = r.u64()?;
    let n = r.seq_len(16)?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        records.push(Record {
            key: Key(r.u64()?),
            value: Value(r.u64()?),
        });
    }
    Ok(Bucket {
        localdepth,
        commonbits,
        next,
        next_mgr,
        prev,
        prev_mgr,
        version,
        records,
    })
}

fn put_fences(w: &mut WireWriter, fences: &[(PortId, u64)]) {
    w.u32(fences.len() as u32);
    for &(p, r) in fences {
        w.u64(p.0);
        w.u64(r);
    }
}

fn get_fences(r: &mut WireReader<'_>) -> Result<Vec<(PortId, u64)>, WireError> {
    let n = r.seq_len(16)?;
    let mut fences = Vec::with_capacity(n);
    for _ in 0..n {
        fences.push((PortId(r.u64()?), r.u64()?));
    }
    Ok(fences)
}

impl WireMsg for Msg {
    fn wire_encode(&self, w: &mut WireWriter) {
        match self {
            Msg::Request {
                op,
                key,
                value,
                user_port,
                req_id,
                ctx,
            } => {
                w.u8(TAG_REQUEST);
                put_op(w, *op);
                w.u64(key.0);
                w.u64(value.0);
                w.u64(user_port.0);
                w.u64(*req_id);
                put_ctx(w, *ctx);
            }
            Msg::UserReply { outcome, req_id } => {
                w.u8(TAG_USER_REPLY);
                put_outcome(w, *outcome);
                w.u64(*req_id);
            }
            Msg::BucketOp(env) => {
                w.u8(TAG_BUCKET_OP);
                put_env(w, env);
            }
            Msg::Wrongbucket { env, buckmgr_port } => {
                w.u8(TAG_WRONGBUCKET);
                put_env(w, env);
                w.u64(buckmgr_port.0);
            }
            Msg::WrongbucketAck => w.u8(TAG_WRONGBUCKET_ACK),
            Msg::Bucketdone {
                txn,
                success,
                outcome,
            } => {
                w.u8(TAG_BUCKETDONE);
                w.u64(*txn);
                w.bool(*success);
                put_opt_outcome(w, *outcome);
            }
            Msg::Update {
                txn,
                success,
                outcome,
                update,
                ctx,
            } => {
                w.u8(TAG_UPDATE);
                w.u64(*txn);
                w.bool(*success);
                put_opt_outcome(w, *outcome);
                put_update(w, update);
                put_ctx(w, *ctx);
            }
            Msg::Copyupdate {
                update,
                update_id,
                ack_port,
                ctx,
            } => {
                w.u8(TAG_COPYUPDATE);
                put_update(w, update);
                w.u64(*update_id);
                w.u64(ack_port.0);
                put_ctx(w, *ctx);
            }
            Msg::CopyAck { update_id } => {
                w.u8(TAG_COPY_ACK);
                w.u64(*update_id);
            }
            Msg::Splitbucket {
                reply_port,
                half2,
                fences,
            } => {
                w.u8(TAG_SPLITBUCKET);
                w.u64(reply_port.0);
                put_bucket(w, half2);
                put_fences(w, fences);
            }
            Msg::Splitreply { link } => {
                w.u8(TAG_SPLITREPLY);
                put_link(w, *link);
            }
            Msg::Mergedown {
                partner,
                localdepth,
                reply_port,
            } => {
                w.u8(TAG_MERGEDOWN);
                w.u64(partner.0);
                w.u32(*localdepth);
                w.u64(reply_port.0);
            }
            Msg::MDReply {
                buffer,
                success,
                fences,
            } => {
                w.u8(TAG_MDREPLY);
                match buffer {
                    None => w.bool(false),
                    Some(b) => {
                        w.bool(true);
                        put_bucket(w, b);
                    }
                }
                w.bool(*success);
                put_fences(w, fences);
            }
            Msg::Mergeup {
                partner,
                target,
                target_mgr,
                reply_port,
            } => {
                w.u8(TAG_MERGEUP);
                w.u64(partner.0);
                w.u64(target.0);
                w.u32(target_mgr.0);
                w.u64(reply_port.0);
            }
            Msg::MUReply {
                localdepth,
                version,
                goahead_port,
                success,
                count,
            } => {
                w.u8(TAG_MUREPLY);
                w.u32(*localdepth);
                w.u64(*version);
                w.u64(goahead_port.0);
                w.bool(*success);
                w.u64(*count as u64);
            }
            Msg::Goahead {
                success,
                next,
                version,
                moved,
                fences,
            } => {
                w.u8(TAG_GOAHEAD);
                w.bool(*success);
                put_link(w, *next);
                w.u64(*version);
                w.u32(moved.len() as u32);
                for rec in moved {
                    w.u64(rec.key.0);
                    w.u64(rec.value.0);
                }
                put_fences(w, fences);
            }
            Msg::GarbageCollect {
                pages,
                gc_id,
                ack_port,
                ctx,
            } => {
                w.u8(TAG_GARBAGE_COLLECT);
                w.u32(pages.len() as u32);
                for p in pages {
                    w.u64(p.0);
                }
                w.u64(*gc_id);
                w.u64(ack_port.0);
                put_ctx(w, *ctx);
            }
            Msg::GcAck { gc_id } => {
                w.u8(TAG_GC_ACK);
                w.u64(*gc_id);
            }
            Msg::Status { reply_port } => {
                w.u8(TAG_STATUS);
                w.u64(reply_port.0);
            }
            Msg::StatusReply {
                rho,
                alpha,
                parked,
                depth,
                entries,
                pending_garbage,
            } => {
                w.u8(TAG_STATUS_REPLY);
                w.u64(*rho as u64);
                w.u64(*alpha as u64);
                w.u64(*parked as u64);
                w.u32(*depth);
                w.u32(entries.len() as u32);
                for e in entries {
                    w.u32(e.mgr.0);
                    w.u64(e.page.0);
                    w.u64(e.version);
                }
                w.u64(*pending_garbage as u64);
            }
            Msg::StatsRequest { reply_port } => {
                w.u8(TAG_STATS_REQUEST);
                w.u64(reply_port.0);
            }
            Msg::StatsReply { json } => {
                w.u8(TAG_STATS_REPLY);
                w.str(json);
            }
            Msg::Shutdown => w.u8(TAG_SHUTDOWN),
        }
    }

    fn wire_decode(bytes: &[u8]) -> Result<Msg, WireError> {
        let mut r = WireReader::new(bytes);
        let msg = match r.u8()? {
            TAG_REQUEST => Msg::Request {
                op: get_op(&mut r)?,
                key: Key(r.u64()?),
                value: Value(r.u64()?),
                user_port: PortId(r.u64()?),
                req_id: r.u64()?,
                ctx: get_ctx(&mut r)?,
            },
            TAG_USER_REPLY => Msg::UserReply {
                outcome: get_outcome(&mut r)?,
                req_id: r.u64()?,
            },
            TAG_BUCKET_OP => Msg::BucketOp(get_env(&mut r)?),
            TAG_WRONGBUCKET => Msg::Wrongbucket {
                env: get_env(&mut r)?,
                buckmgr_port: PortId(r.u64()?),
            },
            TAG_WRONGBUCKET_ACK => Msg::WrongbucketAck,
            TAG_BUCKETDONE => Msg::Bucketdone {
                txn: r.u64()?,
                success: r.bool()?,
                outcome: get_opt_outcome(&mut r)?,
            },
            TAG_UPDATE => Msg::Update {
                txn: r.u64()?,
                success: r.bool()?,
                outcome: get_opt_outcome(&mut r)?,
                update: get_update(&mut r)?,
                ctx: get_ctx(&mut r)?,
            },
            TAG_COPYUPDATE => Msg::Copyupdate {
                update: get_update(&mut r)?,
                update_id: r.u64()?,
                ack_port: PortId(r.u64()?),
                ctx: get_ctx(&mut r)?,
            },
            TAG_COPY_ACK => Msg::CopyAck {
                update_id: r.u64()?,
            },
            TAG_SPLITBUCKET => Msg::Splitbucket {
                reply_port: PortId(r.u64()?),
                half2: Box::new(get_bucket(&mut r)?),
                fences: get_fences(&mut r)?,
            },
            TAG_SPLITREPLY => Msg::Splitreply {
                link: get_link(&mut r)?,
            },
            TAG_MERGEDOWN => Msg::Mergedown {
                partner: get_lockable_page(&mut r)?,
                localdepth: r.u32()?,
                reply_port: PortId(r.u64()?),
            },
            TAG_MDREPLY => Msg::MDReply {
                buffer: if r.bool()? {
                    Some(Box::new(get_bucket(&mut r)?))
                } else {
                    None
                },
                success: r.bool()?,
                fences: get_fences(&mut r)?,
            },
            TAG_MERGEUP => Msg::Mergeup {
                partner: get_lockable_page(&mut r)?,
                target: PageId(r.u64()?),
                target_mgr: ManagerId(r.u32()?),
                reply_port: PortId(r.u64()?),
            },
            TAG_MUREPLY => Msg::MUReply {
                localdepth: r.u32()?,
                version: r.u64()?,
                goahead_port: PortId(r.u64()?),
                success: r.bool()?,
                count: r.u64()? as usize,
            },
            TAG_GOAHEAD => Msg::Goahead {
                success: r.bool()?,
                next: get_link(&mut r)?,
                version: r.u64()?,
                moved: {
                    let n = r.seq_len(16)?;
                    let mut moved = Vec::with_capacity(n);
                    for _ in 0..n {
                        moved.push(Record {
                            key: Key(r.u64()?),
                            value: Value(r.u64()?),
                        });
                    }
                    moved
                },
                fences: get_fences(&mut r)?,
            },
            TAG_GARBAGE_COLLECT => Msg::GarbageCollect {
                pages: {
                    let n = r.seq_len(8)?;
                    let mut pages = Vec::with_capacity(n);
                    for _ in 0..n {
                        pages.push(get_lockable_page(&mut r)?);
                    }
                    pages
                },
                gc_id: r.u64()?,
                ack_port: PortId(r.u64()?),
                ctx: get_ctx(&mut r)?,
            },
            TAG_GC_ACK => Msg::GcAck { gc_id: r.u64()? },
            TAG_STATUS => Msg::Status {
                reply_port: PortId(r.u64()?),
            },
            TAG_STATUS_REPLY => Msg::StatusReply {
                rho: r.u64()? as usize,
                alpha: r.u64()? as usize,
                parked: r.u64()? as usize,
                depth: r.u32()?,
                entries: {
                    let n = r.seq_len(20)?;
                    let mut entries = Vec::with_capacity(n);
                    for _ in 0..n {
                        entries.push(DirEntry {
                            mgr: ManagerId(r.u32()?),
                            page: PageId(r.u64()?),
                            version: r.u64()?,
                        });
                    }
                    entries
                },
                pending_garbage: r.u64()? as usize,
            },
            TAG_STATS_REQUEST => Msg::StatsRequest {
                reply_port: PortId(r.u64()?),
            },
            TAG_STATS_REPLY => Msg::StatsReply {
                json: r.str()?.to_string(),
            },
            TAG_SHUTDOWN => Msg::Shutdown,
            _ => return Err(WireError::Malformed("unknown Msg tag")),
        };
        // Strictness: the payload must be exactly one message. Trailing
        // bytes mean a framing bug (or tampering) — reject, sever, redial.
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Msg) -> Msg {
        let mut w = WireWriter::new();
        msg.wire_encode(&mut w);
        let bytes = w.into_bytes();
        Msg::wire_decode(&bytes).expect("decode")
    }

    fn sample_env() -> OpEnvelope {
        OpEnvelope {
            op: OpKind::Insert,
            key: Key(0xDEAD_BEEF),
            value: Value(42),
            txn: (3 << 48) | 7,
            page: PageId(11),
            user_port: PortId::for_node(4, 9),
            dirmgr_port: PortId::for_node(1, 2),
            pseudokey: Pseudokey(0b1011_0110),
            attempt: 3,
            req_id: 17,
            ctx: TraceCtx {
                trace_id: 0xABCD,
                parent_span: SpanId(55),
            },
        }
    }

    fn sample_bucket() -> Bucket {
        let mut b = Bucket::new(3, 0b101);
        b.next = PageId(9);
        b.next_mgr = ManagerId(2);
        b.prev = PageId(4);
        b.prev_mgr = ManagerId(0);
        b.version = 12;
        b.records.push(Record {
            key: Key(0b1101),
            value: Value(77),
        });
        b.records.push(Record {
            key: Key(0b0101),
            value: Value(78),
        });
        b
    }

    /// `assert_eq!` via Debug: `Msg` deliberately has no `PartialEq`
    /// (buckets inside boxes), but every field shows up in Debug.
    fn assert_same(a: &Msg, b: &Msg) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn every_variant_roundtrips() {
        let msgs = vec![
            Msg::Request {
                op: OpKind::Find,
                key: Key(5),
                value: Value(0),
                user_port: PortId::for_node(9, 1),
                req_id: 3,
                ctx: TraceCtx::NONE,
            },
            Msg::UserReply {
                outcome: UserOutcome::Found(Some(Value(50))),
                req_id: 3,
            },
            Msg::UserReply {
                outcome: UserOutcome::Found(None),
                req_id: 4,
            },
            Msg::UserReply {
                outcome: UserOutcome::Inserted(InsertOutcome::AlreadyPresent),
                req_id: 5,
            },
            Msg::UserReply {
                outcome: UserOutcome::Deleted(DeleteOutcome::NotFound),
                req_id: 6,
            },
            Msg::UserReply {
                outcome: UserOutcome::Failed,
                req_id: 7,
            },
            Msg::BucketOp(sample_env()),
            Msg::Wrongbucket {
                env: sample_env(),
                buckmgr_port: PortId::for_node(2, 5),
            },
            Msg::WrongbucketAck,
            Msg::Bucketdone {
                txn: 9,
                success: true,
                outcome: Some(UserOutcome::Inserted(InsertOutcome::Inserted)),
            },
            Msg::Bucketdone {
                txn: 10,
                success: false,
                outcome: None,
            },
            Msg::Update {
                txn: 11,
                success: true,
                outcome: Some(UserOutcome::Deleted(DeleteOutcome::Deleted)),
                update: DirUpdate::Split {
                    pseudokey: Pseudokey(0b11),
                    old_localdepth: 2,
                    expected_version: 4,
                    new_version: 5,
                    new_bucket: BucketLink::new(ManagerId(1), PageId(8)),
                },
                ctx: TraceCtx::NONE,
            },
            Msg::Copyupdate {
                update: DirUpdate::Merge {
                    pseudokey: Pseudokey(0b10),
                    old_localdepth: 2,
                    expected_v0: 3,
                    expected_v1: 4,
                    new_version: 5,
                    merged: BucketLink::new(ManagerId(0), PageId(1)),
                    garbage: BucketLink::new(ManagerId(1), PageId(2)),
                },
                update_id: 77,
                ack_port: PortId::for_node(1, 3),
                ctx: TraceCtx::NONE,
            },
            Msg::CopyAck { update_id: 77 },
            Msg::Splitbucket {
                reply_port: PortId::for_node(3, 4),
                half2: Box::new(sample_bucket()),
                fences: vec![(PortId(900), 12), (PortId(901), 13)],
            },
            Msg::Splitreply {
                link: BucketLink::new(ManagerId(2), PageId(6)),
            },
            Msg::Mergedown {
                partner: PageId(3),
                localdepth: 2,
                reply_port: PortId(50),
            },
            Msg::MDReply {
                buffer: Some(Box::new(sample_bucket())),
                success: true,
                fences: vec![],
            },
            Msg::MDReply {
                buffer: None,
                success: false,
                fences: vec![(PortId(7), 8)],
            },
            Msg::Mergeup {
                partner: PageId(1),
                target: PageId(2),
                target_mgr: ManagerId(1),
                reply_port: PortId(51),
            },
            Msg::MUReply {
                localdepth: 4,
                version: 9,
                goahead_port: PortId(52),
                success: true,
                count: 3,
            },
            Msg::Goahead {
                success: true,
                next: BucketLink::new(ManagerId(0), PageId(14)),
                version: 10,
                moved: vec![Record {
                    key: Key(1),
                    value: Value(2),
                }],
                fences: vec![(PortId(53), 1)],
            },
            Msg::GarbageCollect {
                pages: vec![PageId(7), PageId(8)],
                gc_id: (2 << 48) | 5,
                ack_port: PortId(54),
                ctx: TraceCtx::NONE,
            },
            Msg::GcAck { gc_id: 5 },
            Msg::Status {
                reply_port: PortId(55),
            },
            Msg::StatusReply {
                rho: 1,
                alpha: 2,
                parked: 3,
                depth: 4,
                entries: vec![
                    DirEntry {
                        mgr: ManagerId(0),
                        page: PageId(0),
                        version: 1,
                    },
                    DirEntry {
                        mgr: ManagerId(1),
                        page: PageId(3),
                        version: 2,
                    },
                ],
                pending_garbage: 5,
            },
            Msg::StatsRequest {
                reply_port: PortId::for_node(2, 7),
            },
            Msg::StatsReply {
                json: "{\"node\":3,\"counters\":{\"dist.requests\":42}}".to_string(),
            },
            Msg::StatsReply {
                json: String::new(),
            },
            Msg::Shutdown,
        ];
        for msg in &msgs {
            assert_same(msg, &roundtrip(msg));
        }
    }

    #[test]
    fn truncated_payloads_are_rejected_not_panicked() {
        let mut w = WireWriter::new();
        Msg::BucketOp(sample_env()).wire_encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Msg::wire_decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = WireWriter::new();
        Msg::Shutdown.wire_encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes.push(0);
        assert!(matches!(
            Msg::wire_decode(&bytes),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn page_ids_beyond_the_lock_managers_range_are_rejected() {
        let mut env = sample_env();
        env.page = PageId(LockManager::MAX_PAGES);
        for msg in [
            Msg::Wrongbucket {
                env,
                buckmgr_port: PortId::for_node(2, 3),
            },
            Msg::Mergedown {
                partner: PageId::NULL,
                localdepth: 2,
                reply_port: PortId::for_node(1, 1),
            },
            Msg::GarbageCollect {
                pages: vec![PageId(7), PageId(u64::MAX - 1)],
                gc_id: 1,
                ack_port: PortId::for_node(1, 1),
                ctx: TraceCtx::NONE,
            },
        ] {
            let mut w = WireWriter::new();
            msg.wire_encode(&mut w);
            assert!(matches!(
                Msg::wire_decode(&w.into_bytes()),
                Err(WireError::Malformed(_))
            ));
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(Msg::wire_decode(&[0xFF]).is_err());
        assert!(Msg::wire_decode(&[0]).is_err());
        // Inner enum tags too.
        let mut w = WireWriter::new();
        w.u8(TAG_USER_REPLY);
        w.u8(99); // no such UserOutcome
        w.u64(1);
        assert!(Msg::wire_decode(&w.into_bytes()).is_err());
    }

    #[test]
    fn oversized_sequence_counts_are_rejected_before_allocation() {
        // A Splitbucket whose record count claims 2^31 entries in a
        // 40-byte payload must fail in seq_len, not OOM.
        let mut w = WireWriter::new();
        w.u8(TAG_SPLITBUCKET);
        w.u64(1); // reply port
        w.u32(0); // localdepth
        w.u64(0); // commonbits
        w.u64(u64::MAX); // next
        w.u32(u32::MAX); // next_mgr
        w.u64(u64::MAX); // prev
        w.u32(u32::MAX); // prev_mgr
        w.u64(0); // version
        w.u32(1 << 31); // records "length"
        assert!(Msg::wire_decode(&w.into_bytes()).is_err());
    }
}
