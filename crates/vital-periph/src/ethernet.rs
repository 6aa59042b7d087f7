//! Virtual Ethernet: per-tenant NICs behind one physical port.
//!
//! The paper lists Ethernet among the peripherals the architecture layer
//! virtualizes (§1, §3.2). The model here is a software switch: every
//! tenant's virtual NIC has a MAC-like address and a bounded receive queue,
//! and the switch delivers frames only to their addressee — a tenant can
//! never observe another tenant's traffic.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::{PeriphError, TenantId};

/// One Ethernet-like frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EthernetFrame {
    /// Sending NIC address.
    pub src: u64,
    /// Destination NIC address.
    pub(crate) dst: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

#[derive(Debug)]
struct NicState {
    tenant: TenantId,
    rx: VecDeque<EthernetFrame>,
    rx_capacity: usize,
    tx_frames: u64,
    rx_drops: u64,
}

/// A handle to one tenant's virtual NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VirtualNic {
    /// The NIC's address on the virtual switch.
    pub mac: u64,
    /// The owning tenant.
    pub tenant: TenantId,
}

/// The per-FPGA virtual switch multiplexing one physical Ethernet port.
pub struct VirtualSwitch {
    nics: Mutex<HashMap<u64, NicState>>,
    next_mac: Mutex<u64>,
}

impl fmt::Debug for VirtualSwitch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VirtualSwitch")
            .field("nics", &self.nics.lock().len())
            .finish()
    }
}

impl Default for VirtualSwitch {
    fn default() -> Self {
        Self::new()
    }
}

impl VirtualSwitch {
    /// Creates an empty switch.
    pub fn new() -> Self {
        VirtualSwitch {
            nics: Mutex::new(HashMap::new()),
            next_mac: Mutex::new(0x02_00_00_00_00_01), // locally administered
        }
    }

    /// Provisions a NIC for `tenant` with an `rx_capacity`-frame queue.
    pub fn create_nic(&self, tenant: TenantId, rx_capacity: usize) -> VirtualNic {
        let mut next = self.next_mac.lock();
        let mac = *next;
        *next += 1;
        self.nics.lock().insert(
            mac,
            NicState {
                tenant,
                rx: VecDeque::new(),
                rx_capacity: rx_capacity.max(1),
                tx_frames: 0,
                rx_drops: 0,
            },
        );
        VirtualNic { mac, tenant }
    }

    /// Removes a NIC, dropping any queued frames.
    ///
    /// # Errors
    ///
    /// Returns [`PeriphError::UnknownNic`] if the NIC does not exist.
    pub fn destroy_nic(&self, nic: VirtualNic) -> Result<(), PeriphError> {
        self.nics
            .lock()
            .remove(&nic.mac)
            .map(|_| ())
            .ok_or(PeriphError::UnknownNic(nic.mac))
    }

    /// Sends a frame from `nic` to `dst`.
    ///
    /// # Errors
    ///
    /// * [`PeriphError::UnknownNic`] if source or destination is missing.
    /// * [`PeriphError::RxQueueFull`] if the destination queue is full (the
    ///   frame is dropped and counted at the receiver).
    pub fn send(&self, nic: VirtualNic, dst: u64, payload: Vec<u8>) -> Result<(), PeriphError> {
        let mut nics = self.nics.lock();
        if !nics.contains_key(&nic.mac) {
            return Err(PeriphError::UnknownNic(nic.mac));
        }
        if !nics.contains_key(&dst) {
            return Err(PeriphError::UnknownNic(dst));
        }
        let frame = EthernetFrame {
            src: nic.mac,
            dst,
            payload,
        };
        {
            let dst_state = nics.get_mut(&dst).expect("checked above");
            if dst_state.rx.len() >= dst_state.rx_capacity {
                dst_state.rx_drops += 1;
                return Err(PeriphError::RxQueueFull(dst));
            }
            dst_state.rx.push_back(frame);
        }
        nics.get_mut(&nic.mac).expect("checked above").tx_frames += 1;
        Ok(())
    }

    /// Receives the next queued frame on `nic`, if any.
    ///
    /// Only the owning tenant's handle can receive: the switch checks that
    /// the handle's tenant matches the NIC registration (isolation).
    ///
    /// # Errors
    ///
    /// Returns [`PeriphError::UnknownNic`] for missing NICs or handles held
    /// by the wrong tenant.
    pub fn recv(&self, nic: VirtualNic) -> Result<Option<EthernetFrame>, PeriphError> {
        let mut nics = self.nics.lock();
        let state = nics
            .get_mut(&nic.mac)
            .ok_or(PeriphError::UnknownNic(nic.mac))?;
        if state.tenant != nic.tenant {
            return Err(PeriphError::UnknownNic(nic.mac));
        }
        Ok(state.rx.pop_front())
    }

    /// Number of NICs currently provisioned on the switch.
    pub fn nic_count(&self) -> usize {
        self.nics.lock().len()
    }

    /// `(tx_frames, rx_queued, rx_drops)` counters of a NIC.
    ///
    /// # Errors
    ///
    /// Returns [`PeriphError::UnknownNic`] if the NIC does not exist.
    pub fn counters(&self, mac: u64) -> Result<(u64, usize, u64), PeriphError> {
        let nics = self.nics.lock();
        let state = nics.get(&mac).ok_or(PeriphError::UnknownNic(mac))?;
        Ok((state.tx_frames, state.rx.len(), state.rx_drops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_delivery() {
        let sw = VirtualSwitch::new();
        let a = sw.create_nic(TenantId::new(1), 8);
        let b = sw.create_nic(TenantId::new(2), 8);
        sw.send(a, b.mac, vec![1, 2, 3]).unwrap();
        let f = sw.recv(b).unwrap().unwrap();
        assert_eq!(f.src, a.mac);
        assert_eq!(f.payload, vec![1, 2, 3]);
        assert!(sw.recv(b).unwrap().is_none());
    }

    #[test]
    fn frames_go_only_to_addressee() {
        let sw = VirtualSwitch::new();
        let a = sw.create_nic(TenantId::new(1), 8);
        let b = sw.create_nic(TenantId::new(2), 8);
        let c = sw.create_nic(TenantId::new(3), 8);
        sw.send(a, b.mac, vec![9]).unwrap();
        assert!(sw.recv(c).unwrap().is_none(), "no snooping");
    }

    #[test]
    fn wrong_tenant_handle_rejected() {
        let sw = VirtualSwitch::new();
        let a = sw.create_nic(TenantId::new(1), 8);
        // Forge a handle to tenant 1's NIC from tenant 2.
        let forged = VirtualNic {
            mac: a.mac,
            tenant: TenantId::new(2),
        };
        assert!(sw.recv(forged).is_err());
    }

    #[test]
    fn rx_queue_overflow_drops() {
        let sw = VirtualSwitch::new();
        let a = sw.create_nic(TenantId::new(1), 8);
        let b = sw.create_nic(TenantId::new(2), 2);
        sw.send(a, b.mac, vec![]).unwrap();
        sw.send(a, b.mac, vec![]).unwrap();
        assert!(matches!(
            sw.send(a, b.mac, vec![]),
            Err(PeriphError::RxQueueFull(_))
        ));
        let (_, queued, drops) = sw.counters(b.mac).unwrap();
        assert_eq!(queued, 2);
        assert_eq!(drops, 1);
    }

    #[test]
    fn unknown_destination_rejected() {
        let sw = VirtualSwitch::new();
        let a = sw.create_nic(TenantId::new(1), 8);
        assert!(sw.send(a, 0xdead, vec![]).is_err());
    }

    #[test]
    fn destroy_removes_nic() {
        let sw = VirtualSwitch::new();
        let a = sw.create_nic(TenantId::new(1), 8);
        assert_eq!(sw.nic_count(), 1);
        sw.destroy_nic(a).unwrap();
        assert!(sw.destroy_nic(a).is_err());
        assert!(sw.counters(a.mac).is_err());
        assert_eq!(sw.nic_count(), 0);
    }
}
