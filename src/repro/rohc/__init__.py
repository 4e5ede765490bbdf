"""ROHC-style TCP ACK compression (RFC 6846 profile, HACK-specialised)."""

from .compressor import Compressor
from .context import CompressorContext, DecompressorContext, \
    DynamicState, cid_for_flow
from .crc import crc3, crc3_u64x5, crc7, crc8
from .decompressor import Decompressor
from .packets import CompressedAck, EncodingError, ParseError, \
    apply_entry, build_frame, encode_entry, parse_entry, parse_frame, \
    unzigzag, zigzag
from .wlsb import interpretation_interval, lsb_decode, lsb_encode

__all__ = [
    "Compressor", "Decompressor", "CompressedAck", "cid_for_flow",
    "CompressorContext", "DecompressorContext", "DynamicState",
    "crc3", "crc3_u64x5", "crc7", "crc8",
    "encode_entry", "parse_entry", "apply_entry",
    "build_frame", "parse_frame", "zigzag", "unzigzag",
    "EncodingError", "ParseError",
    "lsb_encode", "lsb_decode", "interpretation_interval",
]
