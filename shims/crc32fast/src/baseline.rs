//! The portable path: slicing-by-16 tables.
//!
//! `TABLES[0]` is the classic byte-at-a-time table, and `TABLES[k][b]` is
//! the register after byte `b` followed by `k` zero bytes — so sixteen
//! input bytes fold into the register with sixteen independent lookups
//! instead of sixteen dependent ones. Built at compile time.

const fn tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                crate::POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = tables();

/// Folds `data` into the register `state`.
pub(crate) fn update(state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    // Table `k` takes the byte with `k` more bytes of the chunk behind it.
    let fold = |w: u32, behind: usize| {
        t[behind + 3][w as u8 as usize]
            ^ t[behind + 2][(w >> 8) as u8 as usize]
            ^ t[behind + 1][(w >> 16) as u8 as usize]
            ^ t[behind][(w >> 24) as usize]
    };
    let mut c = state;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        c = fold(word(&chunk[0..4]) ^ c, 12)
            ^ fold(word(&chunk[4..8]), 8)
            ^ fold(word(&chunk[8..12]), 4)
            ^ fold(word(&chunk[12..16]), 0);
    }
    for &b in chunks.remainder() {
        c = t[0][(c as u8 ^ b) as usize] ^ (c >> 8);
    }
    c
}
