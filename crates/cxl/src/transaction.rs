//! How the bulk data path accounts one transfer.
//!
//! Every byte that reaches a [`Type3Device`] moves through
//! [`Type3Device::read_bulk`] or [`Type3Device::write_bulk`]. Each call is one
//! transaction: it counts its payload bytes and the 64-byte lines its length
//! spans, rounded up, in the direction it moved them.

#[cfg(test)]
mod tests {
    use crate::{DeviceStats, LinkConfig, Type3Device};

    const LINE: usize = 64;

    fn device() -> Type3Device {
        Type3Device::new("transactions", 1 << 20, LinkConfig::gen5_x16())
    }

    #[test]
    fn read_request_has_no_payload_and_one_flit() {
        let dev = device();
        let mut line = [0xAAu8; LINE];
        dev.read_bulk(0x1000, &mut line).unwrap();
        // Untouched device memory reads as zeros.
        assert_eq!(line, [0u8; LINE]);
        let stats = dev.stats();
        assert_eq!((stats.lines_read, stats.bytes_read), (1, LINE as u64));
        assert_eq!((stats.lines_written, stats.bytes_written), (0, 0));
    }

    #[test]
    fn write_request_occupies_two_flits() {
        let dev = device();
        dev.write_bulk(0x40, &[0xAB; 2 * LINE]).unwrap();
        let stats = dev.stats();
        assert_eq!(
            (stats.lines_written, stats.bytes_written),
            (2, 2 * LINE as u64)
        );
        assert_eq!((stats.lines_read, stats.bytes_read), (0, 0));
    }

    #[test]
    fn partial_write_keeps_byte_enable() {
        let dev = device();
        // Four bytes of one line: the payload counts four bytes, the line one.
        dev.write_bulk(0x80, &[1u8; 4]).unwrap();
        let stats = dev.stats();
        assert_eq!((stats.lines_written, stats.bytes_written), (1, 4));
    }

    #[test]
    fn response_flit_size_depends_on_data() {
        let dev = device();
        // A transfer without data counts nothing; one byte counts a whole line.
        dev.read_bulk(0, &mut []).unwrap();
        dev.write_bulk(0, &[]).unwrap();
        assert_eq!(dev.stats(), DeviceStats::default());
        dev.read_bulk(0, &mut [0u8; 1]).unwrap();
        dev.write_bulk(0, &[0u8; LINE + 1]).unwrap();
        assert_eq!(dev.stats().lines_read, 1);
        assert_eq!(dev.stats().lines_written, 2);
    }

    #[test]
    fn counters_accumulate_and_compute_efficiency() {
        let dev = device();
        dev.write_bulk(0, &[7u8; 100]).unwrap();
        dev.write_bulk(4096, &[7u8; 28]).unwrap();
        dev.read_bulk(0, &mut [0u8; 100]).unwrap();
        let stats = dev.stats();
        assert_eq!(stats.bytes_written, 128);
        assert_eq!(stats.lines_written, 3);
        // Payload efficiency: bytes moved over the line bytes they occupy.
        let efficiency = stats.bytes_written as f64 / (stats.lines_written * LINE as u64) as f64;
        assert!(efficiency > 0.0 && efficiency < 1.0);
        assert_eq!(stats.lines_read, 2);
    }
}
