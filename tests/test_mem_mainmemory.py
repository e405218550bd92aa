"""Unit tests for the byte-accurate main memory."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.address import LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE, ZERO_LINE
from repro.mem.mainmemory import MainMemory


class TestLines:
    def test_unwritten_reads_zero(self):
        memory = MainMemory()
        assert memory.read_line(5, 0) == bytes(LINE_SIZE)
        assert list(memory.frames()) == []

    def test_write_then_read(self):
        memory = MainMemory()
        memory.write_line(5, 3, b"m" * 64)
        assert memory.read_line(5, 3) == b"m" * 64
        assert memory.read_line(5, 4) == bytes(64)

    def test_line_bounds_checked(self):
        memory = MainMemory()
        with pytest.raises(IndexError):
            memory.read_line(0, 64)
        with pytest.raises(IndexError):
            memory.write_line(0, -1, b"x" * 64)

    def test_wrong_size_rejected(self):
        memory = MainMemory()
        with pytest.raises(ValueError):
            memory.write_line(0, 0, b"short")

    def test_read_returns_the_stored_object(self):
        memory = MainMemory()
        data = bytes(range(64))
        memory.write_line(5, 3, data)
        assert memory.read_line(5, 3) is data

    def test_unwritten_lines_share_the_zero_line(self):
        memory = MainMemory()
        memory.write_line(5, 3, b"m" * 64)
        assert memory.read_line(5, 4) is ZERO_LINE
        assert memory.read_line(6, 0) is ZERO_LINE

    def test_mutable_buffer_is_copied(self):
        memory = MainMemory()
        buffer = bytearray(b"a" * 64)
        memory.write_line(5, 3, buffer)
        buffer[0:4] = b"XXXX"
        assert memory.read_line(5, 3) == b"a" * 64


class TestPages:
    def test_page_round_trip(self):
        memory = MainMemory()
        payload = bytes(range(256)) * 16
        memory.write_page(3, payload)
        assert memory.read_page(3) == payload

    def test_copy_page(self):
        memory = MainMemory()
        memory.write_page(1, b"c" * PAGE_SIZE)
        memory.copy_page(1, 2)
        assert memory.read_page(2) == b"c" * PAGE_SIZE
        memory.write_line(1, 0, b"X" * 64)
        assert memory.read_line(2, 0) == b"c" * 64  # copies are independent

    def test_copy_unwritten_page_is_zero(self):
        memory = MainMemory()
        memory.copy_page(9, 10)
        assert memory.read_page(10) == bytes(PAGE_SIZE)

    def test_repeated_line_page_shares_one_object(self):
        memory = MainMemory()
        memory.write_page(3, b"w" * PAGE_SIZE)
        first = memory.read_line(3, 0)
        assert all(memory.read_line(3, line) is first
                   for line in range(LINES_PER_PAGE))
        memory.write_line(3, 7, b"N" * 64)
        assert memory.read_line(3, 7) == b"N" * 64
        assert memory.read_page(3) == (b"w" * 64 * 7 + b"N" * 64
                                       + b"w" * 64 * 56)

    def test_repeated_line_pattern_shares_one_object(self):
        memory = MainMemory()
        line = bytes(range(64))
        memory.write_page(4, bytearray(line * LINES_PER_PAGE))
        assert all(memory.read_line(4, index) is memory.read_line(4, 0)
                   for index in range(LINES_PER_PAGE))
        assert memory.read_line(4, 0) == line

    def test_page_differing_in_its_last_byte_is_split(self):
        memory = MainMemory()
        payload = bytearray(b"r" * PAGE_SIZE)
        payload[-1:] = b"!"
        memory.write_page(5, payload)
        assert memory.read_page(5) == bytes(payload)
        assert memory.read_line(5, LINES_PER_PAGE - 1) == b"r" * 63 + b"!"
        assert memory.read_line(5, 0) is not memory.read_line(5, 1)

    def test_wrong_page_size_rejected(self):
        memory = MainMemory()
        with pytest.raises(ValueError):
            memory.write_page(0, b"small")


class TestBytes:
    def test_byte_round_trip(self):
        memory = MainMemory()
        memory.write_bytes(2, 100, b"hello")
        assert memory.read_bytes(2, 100, 5) == b"hello"

    def test_crossing_frame_rejected(self):
        memory = MainMemory()
        with pytest.raises(IndexError):
            memory.write_bytes(0, PAGE_SIZE - 2, b"abcd")
        with pytest.raises(IndexError):
            memory.read_bytes(0, PAGE_SIZE - 2, 4)

    def test_write_across_a_line_boundary(self):
        memory = MainMemory()
        memory.write_page(2, b"p" * PAGE_SIZE)
        memory.write_bytes(2, 60, b"ABCDEFGH")
        assert memory.read_line(2, 0) == b"p" * 60 + b"ABCD"
        assert memory.read_line(2, 1) == b"EFGH" + b"p" * 60
        assert memory.read_bytes(2, 58, 12) == b"ppABCDEFGHpp"
        assert memory.read_page(2) == (b"p" * 60 + b"ABCDEFGH"
                                       + b"p" * (PAGE_SIZE - 68))

    def test_negative_length_rejected(self):
        memory = MainMemory()
        memory.write_page(2, b"p" * PAGE_SIZE)
        with pytest.raises(IndexError):
            memory.read_bytes(2, 100, -1)

    def test_frames_iterates_touched(self):
        memory = MainMemory()
        memory.write_line(4, 0, b"a" * 64)
        memory.write_line(9, 0, b"b" * 64)
        assert sorted(memory.frames()) == [4, 9]


ppns = st.integers(0, 3)
lines = st.integers(0, LINES_PER_PAGE - 1)
line_data = st.binary(min_size=LINE_SIZE, max_size=LINE_SIZE)
memory_ops = st.lists(st.one_of(
    st.tuples(st.just("write_line"), ppns, lines, line_data,
              st.booleans()),
    st.tuples(st.just("write_page"), ppns, line_data, st.booleans()),
    # Offsets and lengths lean on line boundaries: a write that starts
    # or ends one byte either side of one.
    st.tuples(st.just("write_bytes"), ppns, lines,
              st.one_of(st.sampled_from([0, 1, 63]), st.integers(0, 63)),
              st.one_of(st.sampled_from([0, 1, 2, 64, 65]),
                        st.integers(0, 200)),
              st.integers(0, 255)),
    st.tuples(st.just("copy_page"), ppns, ppns),
), min_size=5, max_size=40)


class TestReferenceModel:
    @settings(max_examples=100, deadline=None)
    @given(memory_ops)
    def test_agrees_with_bytearray_frames(self, ops):
        """Every op leaves the same bytes as 4KB bytearray frames."""
        memory = MainMemory()
        model = {}

        def frame(ppn):
            return model.setdefault(ppn, bytearray(PAGE_SIZE))

        for op in ops:
            kind, ppn = op[0], op[1]
            if kind == "write_line":
                _, _, line, data, mutable = op
                memory.write_line(ppn, line,
                                  bytearray(data) if mutable else data)
                frame(ppn)[line * LINE_SIZE:(line + 1) * LINE_SIZE] = data
            elif kind == "write_page":
                # Either one line repeated or a page of distinct lines.
                _, _, data, repeated = op
                page = (data * LINES_PER_PAGE if repeated
                        else bytes(range(256)) * 15 + data * 4)
                memory.write_page(ppn, page)
                model[ppn] = bytearray(page)
            elif kind == "write_bytes":
                _, _, line, start, length, seed = op
                offset = line * LINE_SIZE + start
                data = bytes((seed + i) % 256
                             for i in range(min(length, PAGE_SIZE - offset)))
                memory.write_bytes(ppn, offset, data)
                frame(ppn)[offset:offset + len(data)] = data
            else:
                memory.copy_page(ppn, op[2])
                model[op[2]] = bytearray(model.get(ppn, bytes(PAGE_SIZE)))
            for check in range(4):
                expected = bytes(model.get(check, bytes(PAGE_SIZE)))
                assert memory.read_page(check) == expected
                assert all(memory.read_line(check, line)
                           == expected[line * LINE_SIZE:(line + 1) * LINE_SIZE]
                           for line in range(LINES_PER_PAGE))
            assert sorted(memory.frames()) == sorted(model)
