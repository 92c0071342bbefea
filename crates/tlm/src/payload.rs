//! Transaction payloads exchanged over TAMs.

use std::fmt;

/// Identifies the initiator of a transaction for arbitration and
/// per-initiator utilization accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InitiatorId(pub u8);

impl fmt::Display for InitiatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "init#{}", self.0)
    }
}

/// Transaction command, mirroring the paper's `TAM_IF` interface: plain
/// reads and writes plus the combined `write_read` used by scan-style slaves
/// where data is concurrently shifted in and out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// Transfer data from the target to the initiator.
    Read,
    /// Transfer data from the initiator to the target.
    Write,
    /// Concurrent shift-in/shift-out: the target consumes the payload data
    /// and replaces it with the data shifted out.
    WriteRead,
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Command::Read => "read",
            Command::Write => "write",
            Command::WriteRead => "write_read",
        };
        f.write_str(s)
    }
}

/// Completion status of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResponseStatus {
    /// Not yet transported.
    #[default]
    Incomplete,
    /// Transported successfully.
    Ok,
    /// No target is mapped at the address.
    AddressError,
    /// The target rejected the command (e.g. a read from a write-only
    /// pattern sink, or access while in an incompatible wrapper mode).
    CommandError,
    /// The target is configured off-line (e.g. wrapper in a mode that does
    /// not accept TAM data).
    TargetError,
}

impl ResponseStatus {
    /// Whether the transaction completed successfully.
    pub fn is_ok(self) -> bool {
        self == ResponseStatus::Ok
    }
}

impl fmt::Display for ResponseStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResponseStatus::Incomplete => "incomplete",
            ResponseStatus::Ok => "ok",
            ResponseStatus::AddressError => "address error",
            ResponseStatus::CommandError => "command error",
            ResponseStatus::TargetError => "target error",
        };
        f.write_str(s)
    }
}

/// A TAM transaction: the unit of communication between test infrastructure
/// blocks.
///
/// Data is carried as packed 32-bit words with an explicit bit length, so a
/// payload can describe scan images that are not word multiples. A payload
/// may also be *volume-only* (`data` empty, `bit_len > 0`): timing and
/// utilization are modeled from `bit_len` alone, which is how large
/// exploration runs avoid materializing terabits of stimuli.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// The command to perform.
    pub cmd: Command,
    /// Target address in the TAM address space.
    pub addr: u32,
    /// Packed payload words (little-endian bit order within the vector).
    pub data: Vec<u32>,
    /// Number of meaningful payload bits (drives transfer timing).
    pub bit_len: u64,
    /// Who issued the transaction.
    pub initiator: InitiatorId,
    /// Whether this is a volume-only (timing) transaction; see
    /// [`Transaction::volume`].
    pub(crate) volume: bool,
    /// The initiator's hand-off promise; see [`Transaction::follows`].
    follows: bool,
    /// Filled in by the target.
    pub status: ResponseStatus,
}

impl Transaction {
    /// Creates a write transaction carrying `data` (of `bit_len` bits).
    ///
    /// # Panics
    ///
    /// Panics if `data` is too short for `bit_len`.
    pub fn write(initiator: InitiatorId, addr: u32, data: Vec<u32>, bit_len: u64) -> Self {
        assert!(
            (data.len() as u64) * 32 >= bit_len || data.is_empty(),
            "payload words too short for bit_len"
        );
        Transaction {
            cmd: Command::Write,
            addr,
            data,
            bit_len,
            initiator,
            volume: false,
            follows: false,
            status: ResponseStatus::Incomplete,
        }
    }

    /// Creates a read transaction for `bit_len` bits.
    pub fn read(initiator: InitiatorId, addr: u32, bit_len: u64) -> Self {
        Transaction {
            cmd: Command::Read,
            addr,
            data: Vec::new(),
            bit_len,
            initiator,
            volume: false,
            follows: false,
            status: ResponseStatus::Incomplete,
        }
    }

    /// Creates a combined write/read (scan shift) transaction.
    ///
    /// # Panics
    ///
    /// Panics if `data` is too short for `bit_len`.
    pub(crate) fn write_read(
        initiator: InitiatorId,
        addr: u32,
        data: Vec<u32>,
        bit_len: u64,
    ) -> Self {
        let mut t = Transaction::write(initiator, addr, data, bit_len);
        t.cmd = Command::WriteRead;
        t
    }

    /// Creates a volume-only (timing) transaction: no payload bits are
    /// materialized, only the data volume is modeled.
    pub fn volume(initiator: InitiatorId, cmd: Command, addr: u32, bit_len: u64) -> Self {
        Transaction {
            cmd,
            addr,
            data: Vec::new(),
            bit_len,
            initiator,
            volume: true,
            follows: false,
            status: ResponseStatus::Incomplete,
        }
    }

    /// Whether this transaction models data volume and timing only (no
    /// materialized payload bits).
    pub fn is_volume_only(&self) -> bool {
        self.volume
    }

    /// Whether the initiator promised that its next kernel interaction
    /// is another transaction through the same port, at the same
    /// simulated time: no wait, spawn or event in between, only host
    /// work. A port may then hold a posted transfer back and resolve it
    /// when that transaction arrives (the EBI's same-time hand-off,
    /// DESIGN.md § TAM fast paths). Components that do not post ignore
    /// it; the default is no promise.
    pub fn follows(&self) -> bool {
        self.follows
    }

    /// Sets the hand-off promise of [`Transaction::follows`].
    pub fn set_follows(&mut self, follows: bool) {
        self.follows = follows;
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} @{:#x} ({} bits) [{}]",
            self.initiator, self.cmd, self.addr, self.bit_len, self.status
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_fields() {
        let w = Transaction::write(InitiatorId(1), 0x10, vec![0xAB], 8);
        assert_eq!(w.cmd, Command::Write);
        assert_eq!(w.status, ResponseStatus::Incomplete);
        assert!(!w.is_volume_only());

        let r = Transaction::read(InitiatorId(2), 0x20, 64);
        assert_eq!(r.cmd, Command::Read);
        assert_eq!(r.bit_len, 64);

        let wr = Transaction::write_read(InitiatorId(3), 0x30, vec![0, 0], 60);
        assert_eq!(wr.cmd, Command::WriteRead);

        let mut v = Transaction::volume(InitiatorId(0), Command::Write, 0, 1_000_000);
        assert!(v.is_volume_only());
        assert!(!v.follows(), "no hand-off promise unless set");
        v.set_follows(true);
        assert!(v.follows());
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn write_with_short_buffer_panics() {
        let _ = Transaction::write(InitiatorId(0), 0, vec![0], 64);
    }

    #[test]
    fn status_helpers() {
        assert!(ResponseStatus::Ok.is_ok());
        assert!(!ResponseStatus::AddressError.is_ok());
        assert!(!ResponseStatus::Incomplete.is_ok());
    }

    #[test]
    fn display_round_trip() {
        let t = Transaction::write(InitiatorId(1), 0x40, vec![1], 32);
        let s = t.to_string();
        assert!(s.contains("write"), "{s}");
        assert!(s.contains("0x40"), "{s}");
    }
}
