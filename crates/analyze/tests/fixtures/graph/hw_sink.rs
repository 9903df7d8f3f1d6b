//! Graph fixture: a panicking helper.

pub fn slot_lookup(tbl: &Table) -> u32 {
    tbl.slot().unwrap()
}
