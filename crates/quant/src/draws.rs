//! The per-coordinate draw stream of SQ and SD.
//!
//! SQ's heads and SD's dithers take one xoshiro256** output per coordinate:
//! draw `j` of a row is output `j` of the generator seeded with the row's
//! seed, whatever order the packers and decoders ask for draws in. A
//! [`DrawStream`] produces draws where they are asked for and nowhere else:
//! a pull that continues the last one steps the generator, a pull that
//! skips coordinates jumps over them
//! ([`Xoshiro256StarStar::advance`]), and a pull that goes back reseeds
//! and jumps. A row whose heads are packed for a tenth of its packets
//! therefore draws a tenth of its coordinates.

use core::ops::Range;
use trimgrad_hadamard::prng::Xoshiro256StarStar;

/// Draws a pull produces at a time, into a buffer on the stack: the
/// generator's state update is a serial chain, so it runs tight over a
/// block before the packer or decoder works through the block. A multiple
/// of eight, so every block but a ragged last one fills whole bytes of a
/// 1-bit head part.
const BLOCK: usize = 256;

/// One row's draw stream: the generator seeded with the row's seed, and
/// the position of its next output.
#[derive(Debug)]
pub(crate) struct DrawStream {
    seed: u64,
    rng: Xoshiro256StarStar,
    next: usize,
}

impl Default for DrawStream {
    fn default() -> Self {
        Self::new(0)
    }
}

impl DrawStream {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            seed,
            rng: Xoshiro256StarStar::new(seed),
            next: 0,
        }
    }

    /// Pulls the draws of coordinates `coords`, each `draw` applied to the
    /// generator at the coordinate's output, and hands them to `each` a
    /// block at a time with the block's offsets within `coords`.
    // trimlint: hot-path -- every SQ/SD head packed and every SD head decoded pulls its draws here
    pub(crate) fn pull(
        &mut self,
        coords: Range<usize>,
        mut draw: impl FnMut(&mut Xoshiro256StarStar) -> f32,
        mut each: impl FnMut(Range<usize>, &[f32]),
    ) {
        if coords.start < self.next {
            *self = Self::new(self.seed);
        }
        self.rng.advance((coords.start - self.next) as u64);
        let mut buf = [0.0f32; BLOCK];
        let mut at = 0;
        while at < coords.len() {
            let end = coords.len().min(at + BLOCK);
            let block = &mut buf[..end - at];
            for d in block.iter_mut() {
                *d = draw(&mut self.rng);
            }
            each(at..end, block);
            at = end;
        }
        self.next = coords.end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The draws `pull` hands over for `coords`, in order.
    fn pulled(stream: &mut DrawStream, coords: Range<usize>) -> Vec<f32> {
        let mut got = vec![f32::NAN; coords.len()];
        stream.pull(coords, Xoshiro256StarStar::next_f32, |block, draws| {
            got[block].copy_from_slice(draws);
        });
        got
    }

    #[test]
    fn every_pull_reads_the_stream_at_its_coordinates() {
        let mut rng = Xoshiro256StarStar::new(77);
        let want: Vec<f32> = (0..2000).map(|_| rng.next_f32()).collect();
        let mut stream = DrawStream::new(77);
        // Continuing, skipping, repeating, going back, empty, block-sized.
        for coords in [
            0..10,
            10..20,
            300..700,
            300..700,
            5..6,
            6..6,
            1000..1000 + BLOCK,
            999..2000,
            0..2000,
        ] {
            assert_eq!(
                pulled(&mut stream, coords.clone()),
                want[coords.clone()],
                "{coords:?}"
            );
        }
    }
}
