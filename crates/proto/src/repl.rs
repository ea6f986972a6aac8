//! Log-shipping and promotion records for the replicated write path.
//!
//! A read-write HostID is a *key*, not a machine (§2.2): any replica
//! holding the group's private key can serve the realm. What makes a
//! replica *safe* to promote is holding the committed operation
//! history, and these records are that history's wire form. The
//! primary appends one [`ReplRecord::Op`] per mutating NFS call to its
//! own log and ships the same frame to every backup; a write is acked
//! to the client only once a quorum of logs holds the frame durably.
//! Checkpoint marks record coordinated truncation points; a promotion
//! record is the first frame a newly promoted primary writes, pinning
//! which boot epoch took over and from which LSN.
//!
//! Records are XDR, tag-dispatched like `sfs::JournalRecord`, and are
//! carried inside `sfs_sim::JournalDisk` CRC frames — corruption is
//! the journal layer's problem, interpretation is this layer's.

use sfs_xdr::{XdrDecoder, XdrEncoder};

/// One replicated mutating operation, exactly as the primary executed
/// it: resolved credentials plus the NFS-form request body (procedure
/// number and XDR-encoded arguments with plaintext handles — backups
/// re-derive wire handles from the shared group key, so NFS form is
/// the canonical one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplOp {
    /// Log sequence number, 1-based, dense, assigned by the primary.
    pub lsn: u64,
    /// Authenticated uid the primary resolved for the call.
    pub uid: u32,
    /// Supplementary gids of the caller.
    pub gids: Vec<u32>,
    /// NFSv3 procedure number.
    pub proc: u32,
    /// XDR-encoded NFS-form arguments.
    pub args: Vec<u8>,
}

/// One frame of the replication log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplRecord {
    /// A mutating operation the primary executed at this LSN.
    Op(ReplOp),
    /// All members have applied and truncated through `lsn`; frames at
    /// or below it will never be shipped again.
    Checkpoint { lsn: u64 },
    /// A backup took over as primary: its server's boot `epoch` at
    /// promotion, and the first LSN (`next_lsn`) it will assign.
    Promote { epoch: u64, next_lsn: u64 },
}

impl ReplRecord {
    /// Encodes one record.
    pub fn to_xdr(&self) -> Vec<u8> {
        let mut enc = XdrEncoder::new();
        match self {
            ReplRecord::Op(op) => {
                enc.put_u32(0)
                    .put_u64(op.lsn)
                    .put_u32(op.uid)
                    .put_u32(op.gids.len() as u32);
                for g in &op.gids {
                    enc.put_u32(*g);
                }
                enc.put_u32(op.proc).put_opaque(&op.args);
            }
            ReplRecord::Checkpoint { lsn } => {
                enc.put_u32(1).put_u64(*lsn);
            }
            ReplRecord::Promote { epoch, next_lsn } => {
                enc.put_u32(2).put_u64(*epoch).put_u64(*next_lsn);
            }
        }
        enc.into_bytes()
    }

    /// Decodes one record.
    pub fn from_xdr(bytes: &[u8]) -> Result<Self, String> {
        let e = |e: sfs_xdr::XdrError| e.to_string();
        let mut dec = XdrDecoder::new(bytes);
        let tag = dec.get_u32().map_err(e)?;
        let rec = match tag {
            0 => {
                let lsn = dec.get_u64().map_err(e)?;
                let uid = dec.get_u32().map_err(e)?;
                let n = dec.get_u32().map_err(e)?;
                let mut gids = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    gids.push(dec.get_u32().map_err(e)?);
                }
                ReplRecord::Op(ReplOp {
                    lsn,
                    uid,
                    gids,
                    proc: dec.get_u32().map_err(e)?,
                    args: dec.get_opaque().map_err(e)?,
                })
            }
            1 => ReplRecord::Checkpoint {
                lsn: dec.get_u64().map_err(e)?,
            },
            2 => ReplRecord::Promote {
                epoch: dec.get_u64().map_err(e)?,
                next_lsn: dec.get_u64().map_err(e)?,
            },
            other => return Err(format!("unknown repl record tag {other}")),
        };
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: ReplRecord) {
        let bytes = rec.to_xdr();
        assert_eq!(ReplRecord::from_xdr(&bytes).unwrap(), rec);
    }

    #[test]
    fn records_roundtrip() {
        roundtrip(ReplRecord::Op(ReplOp {
            lsn: 42,
            uid: 1000,
            gids: vec![1000, 20, 0],
            proc: 7,
            args: vec![0xDE, 0xAD, 0xBE, 0xEF, 0x01],
        }));
        roundtrip(ReplRecord::Op(ReplOp {
            lsn: u64::MAX,
            uid: 0,
            gids: vec![],
            proc: 0,
            args: vec![],
        }));
        roundtrip(ReplRecord::Checkpoint { lsn: 8 });
        roundtrip(ReplRecord::Promote {
            epoch: 3,
            next_lsn: 129,
        });
    }

    #[test]
    fn unknown_tag_and_truncated_frames_are_errors() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(9);
        assert!(ReplRecord::from_xdr(&enc.into_bytes()).is_err());
        let good = ReplRecord::Checkpoint { lsn: 5 }.to_xdr();
        assert!(ReplRecord::from_xdr(&good[..good.len() - 2]).is_err());
    }
}
