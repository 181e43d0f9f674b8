"""Property test: the banked HBM's per-block burst costing.

``BankedHBM.access`` costs all bursts that start inside one row-sized block in
one step.  The per-burst loop it replaced is kept here as the oracle: over
generated request sequences (unaligned addresses, zero, sub-burst, exactly
one burst, multi-row and row-straddling sizes, bank wrap-around) the
completion times, hit/miss counters and open-row table must match it exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.hbm import BankedHBM


class PerBurstHBM(BankedHBM):
    """The original model: one Python iteration per burst."""

    def access(self, request_time, nbytes, address=0, is_write=False):
        if nbytes <= 0:
            return request_time + self.latency
        bank_service = 0.0
        offset = 0
        while offset < nbytes:
            burst = min(self.burst_bytes, nbytes - offset)
            addr = address + offset
            bank = (addr // self.row_bytes) % self.num_banks
            row = addr // (self.row_bytes * self.num_banks)
            if self._bank_open_row[bank] == row:
                bank_service += self.t_row_hit
                self.row_hits += 1
            else:
                bank_service += self.t_row_miss
                self.row_misses += 1
                self._bank_open_row[bank] = row
            offset += burst
        bus_finish = self._bus.reserve(request_time, nbytes)
        service_finish = request_time + bank_service / max(1, self.num_banks // 4)
        completion = max(bus_finish, service_finish) + self.latency
        self.total_requests += 1
        if is_write:
            self.total_bytes_written += nbytes
        else:
            self.total_bytes_read += nbytes
        return completion


GEOMETRIES = st.sampled_from([
    # (num_banks, burst_bytes, row_bytes)
    (32, 64, 1024),    # the reference simulator's default
    (4, 64, 256),
    (2, 64, 100),      # bursts straddle row boundaries
    (3, 48, 64),
    (1, 128, 64),      # a burst longer than a row skips blocks
])

SIZES = st.one_of(
    st.sampled_from([0, 1, 63, 64, 65, 1023, 1024, 1025, 4096, 40_000]),
    st.integers(0, 70_000),
)

REQUESTS = st.lists(
    st.tuples(st.integers(0, 5_000),                 # request time
              SIZES,
              st.one_of(st.integers(0, 4096),          # unaligned, near rows
                        st.integers(0, 1 << 22)),      # wraps the banks
              st.booleans()),                          # is_write
    min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(geometry=GEOMETRIES, requests=REQUESTS)
def test_block_costing_matches_per_burst_loop(geometry, requests):
    num_banks, burst_bytes, row_bytes = geometry
    fast = BankedHBM(num_banks=num_banks, burst_bytes=burst_bytes, row_bytes=row_bytes)
    oracle = PerBurstHBM(num_banks=num_banks, burst_bytes=burst_bytes, row_bytes=row_bytes)
    for time, nbytes, address, is_write in requests:
        assert (fast.access(float(time), nbytes, address=address, is_write=is_write)
                == oracle.access(float(time), nbytes, address=address, is_write=is_write))
        assert fast.row_hits == oracle.row_hits
        assert fast.row_misses == oracle.row_misses
        assert fast._bank_open_row == oracle._bank_open_row
    assert fast.total_bytes_read == oracle.total_bytes_read
    assert fast.total_bytes_written == oracle.total_bytes_written
    assert fast.total_requests == oracle.total_requests


def test_one_block_misses_once():
    hbm = BankedHBM()
    hbm.access(0.0, 1024, address=0)
    assert (hbm.row_misses, hbm.row_hits) == (1, 15)
    hbm.access(0.0, 1024, address=512)     # straddles blocks 0 and 1
    assert (hbm.row_misses, hbm.row_hits) == (2, 30)
