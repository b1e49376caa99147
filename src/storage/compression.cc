#include "storage/compression.h"

namespace vertexica {

int64_t UncompressedByteSize(const Column& column) {
  int64_t bytes = column.ValidityByteSize();
  switch (column.type()) {
    case DataType::kInt64:
      return bytes + column.length() * static_cast<int64_t>(sizeof(int64_t));
    case DataType::kDouble:
      return bytes + column.length() * static_cast<int64_t>(sizeof(double));
    case DataType::kBool:
      return bytes + column.length();
    case DataType::kString: {
      // Dictionary-encoded columns: per-row sizes from the dictionary, so
      // accounting never forces a decode.
      if (const auto* dict = column.dict()) {
        for (int32_t code : dict->codes) {
          bytes += static_cast<int64_t>(
              sizeof(std::string) +
              dict->dictionary[static_cast<size_t>(code)].size());
        }
        return bytes;
      }
      for (const auto& s : column.strings()) {
        bytes += static_cast<int64_t>(sizeof(std::string) + s.size());
      }
      return bytes;
    }
  }
  return 0;
}

int64_t CompressedByteSize(const Column& column) {
  const int64_t validity = column.ValidityByteSize();
  switch (column.type()) {
    case DataType::kInt64: {
      // Reuse the stored runs when the column is already RLE-encoded.
      if (const auto* runs = column.rle_runs()) {
        return validity +
               static_cast<int64_t>(runs->size() * sizeof(RleRun));
      }
      return validity + RleRunCount(column.ints()) *
                            static_cast<int64_t>(sizeof(RleRun));
    }
    case DataType::kBool: {
      if (const auto* runs = column.rle_runs()) {
        return validity +
               static_cast<int64_t>(runs->size() * sizeof(RleRun));
      }
      return validity + RleRunCount(column.bools()) *
                            static_cast<int64_t>(sizeof(RleRun));
    }
    case DataType::kString:
      if (const auto* dict = column.dict()) {
        return validity + dict->ByteSize();
      }
      return validity + DictionaryEncode(column.strings()).ByteSize();
    case DataType::kDouble:
      return UncompressedByteSize(column);
  }
  return 0;
}

int64_t EncodedByteSize(const Column& column) {
  switch (column.encoding()) {
    case ColumnEncoding::kRle:
      return column.ValidityByteSize() +
             static_cast<int64_t>(column.rle_runs()->size() * sizeof(RleRun));
    case ColumnEncoding::kDict:
      return column.ValidityByteSize() + column.dict()->ByteSize();
    case ColumnEncoding::kPlain:
      return UncompressedByteSize(column);
  }
  return 0;
}

}  // namespace vertexica
