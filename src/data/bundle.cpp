#include "data/bundle.hpp"

#include <sys/stat.h>

#include <array>
#include <cstring>

namespace ltfb::data {

namespace {

constexpr std::array<char, 8> kMagic = {'L', 'T', 'F', 'B',
                                        'B', 'N', 'D', 'L'};

struct Header {
  std::array<char, 8> magic;
  std::uint32_t version;
  std::uint32_t input_width;
  std::uint32_t scalar_width;
  std::uint32_t image_width;
  std::uint64_t sample_count;
};
static_assert(sizeof(Header) == 32);

void write_exact(std::FILE* file, const void* data, std::size_t bytes,
                 const char* what) {
  if (std::fwrite(data, 1, bytes, file) != bytes) {
    throw ltfb::FormatError(std::string("bundle write failed: ") + what);
  }
}

struct FileCloser {
  void operator()(std::FILE* file) const noexcept { std::fclose(file); }
};

void read_exact(std::FILE* file, void* data, std::size_t bytes,
                const char* what) {
  if (std::fread(data, 1, bytes, file) != bytes) {
    throw ltfb::FormatError(std::string("bundle read failed: ") + what);
  }
}

}  // namespace

BundleWriter::BundleWriter(const std::filesystem::path& path,
                           const SampleSchema& schema)
    : schema_(schema), path_(path) {
  file_ = std::fopen(path.string().c_str(), "wb");
  if (file_ == nullptr) {
    throw ltfb::FormatError("cannot open bundle for writing: " +
                            path.string());
  }
  write_header();
}

BundleWriter::~BundleWriter() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; a failed close leaves a truncated file
    // which the reader will reject.
  }
}

void BundleWriter::write_header() {
  Header header{};
  header.magic = kMagic;
  header.version = kBundleFormatVersion;
  header.input_width = static_cast<std::uint32_t>(schema_.input_width);
  header.scalar_width = static_cast<std::uint32_t>(schema_.scalar_width);
  header.image_width = static_cast<std::uint32_t>(schema_.image_width);
  header.sample_count = count_;
  write_exact(file_, &header, sizeof(header), "header");
}

void BundleWriter::append(const Sample& sample) {
  LTFB_CHECK_MSG(file_ != nullptr, "append after close");
  LTFB_CHECK_MSG(sample.conforms_to(schema_),
                 "sample " << sample.id << " does not conform to schema");
  write_exact(file_, &sample.id, sizeof(sample.id), "sample id");
  write_exact(file_, sample.input.data(), sample.input.size() * sizeof(float),
              "input");
  write_exact(file_, sample.scalars.data(),
              sample.scalars.size() * sizeof(float), "scalars");
  write_exact(file_, sample.images.data(),
              sample.images.size() * sizeof(float), "images");
  ++count_;
}

void BundleWriter::close() {
  if (file_ == nullptr) return;
  // Rewrite the header with the final count.
  if (std::fseek(file_, 0, SEEK_SET) != 0) {
    std::fclose(file_);
    file_ = nullptr;
    throw ltfb::FormatError("bundle close: seek failed for " +
                            path_.string());
  }
  write_header();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) {
    throw ltfb::FormatError("bundle close failed for " + path_.string());
  }
}

BundleReader::BundleReader(const std::filesystem::path& path) {
  // The handle closes itself on every throw below; only a fully validated
  // reader takes ownership.
  std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.string().c_str(), "rb"));
  if (file == nullptr) {
    throw ltfb::FormatError("cannot open bundle for reading: " +
                            path.string());
  }
  Header header{};
  read_exact(file.get(), &header, sizeof(header), "header");
  if (header.magic != kMagic) {
    throw ltfb::FormatError("bad bundle magic in " + path.string());
  }
  if (header.version != kBundleFormatVersion) {
    throw ltfb::FormatError("unsupported bundle version in " + path.string());
  }
  // The header must describe exactly the bytes on disk: a hostile count or
  // width otherwise turns into a huge allocation before the first read.
  // Three u32 widths cannot overflow a u64 record size, and the count is
  // checked by division so count x record cannot overflow either.
  struct stat info {};
  if (::fstat(::fileno(file.get()), &info) != 0) {
    throw ltfb::FormatError("cannot stat bundle " + path.string());
  }
  const auto file_bytes = static_cast<std::uint64_t>(info.st_size);
  const std::uint64_t record =
      sizeof(SampleId) +
      sizeof(float) * (std::uint64_t{header.input_width} +
                       header.scalar_width + header.image_width);
  const std::uint64_t payload =
      file_bytes > sizeof(Header) ? file_bytes - sizeof(Header) : 0;
  if (payload % record != 0 || payload / record != header.sample_count) {
    throw ltfb::FormatError(
        "bundle header claims " + std::to_string(header.sample_count) +
        " records of " + std::to_string(record) + " bytes but " +
        path.string() + " holds " + std::to_string(payload) +
        " payload bytes");
  }
  schema_.input_width = header.input_width;
  schema_.scalar_width = header.scalar_width;
  schema_.image_width = header.image_width;
  count_ = header.sample_count;
  record_bytes_ = record;
  payload_offset_ = static_cast<long>(sizeof(Header));
  file_ = file.release();
}

BundleReader::~BundleReader() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

Sample BundleReader::read_sample(std::size_t index) {
  LTFB_CHECK_MSG(index < count_, "sample index " << index
                                                 << " out of range (count "
                                                 << count_ << ")");
  const long offset =
      payload_offset_ + static_cast<long>(index * record_bytes_);
  if (std::fseek(file_, offset, SEEK_SET) != 0) {
    throw ltfb::FormatError("bundle seek failed");
  }
  Sample sample;
  read_exact(file_, &sample.id, sizeof(sample.id), "sample id");
  sample.input.resize(schema_.input_width);
  sample.scalars.resize(schema_.scalar_width);
  sample.images.resize(schema_.image_width);
  read_exact(file_, sample.input.data(), sample.input.size() * sizeof(float),
             "input");
  read_exact(file_, sample.scalars.data(),
             sample.scalars.size() * sizeof(float), "scalars");
  read_exact(file_, sample.images.data(),
             sample.images.size() * sizeof(float), "images");
  return sample;
}

std::vector<Sample> BundleReader::read_all() {
  std::vector<Sample> samples;
  samples.reserve(count_);
  if (std::fseek(file_, payload_offset_, SEEK_SET) != 0) {
    throw ltfb::FormatError("bundle seek failed");
  }
  for (std::size_t i = 0; i < count_; ++i) {
    Sample sample;
    read_exact(file_, &sample.id, sizeof(sample.id), "sample id");
    sample.input.resize(schema_.input_width);
    sample.scalars.resize(schema_.scalar_width);
    sample.images.resize(schema_.image_width);
    read_exact(file_, sample.input.data(),
               sample.input.size() * sizeof(float), "input");
    read_exact(file_, sample.scalars.data(),
               sample.scalars.size() * sizeof(float), "scalars");
    read_exact(file_, sample.images.data(),
               sample.images.size() * sizeof(float), "images");
    samples.push_back(std::move(sample));
  }
  return samples;
}

std::vector<std::filesystem::path> write_bundle_set(
    const std::filesystem::path& directory, const SampleSchema& schema,
    const std::vector<Sample>& samples, std::size_t files_count) {
  LTFB_CHECK(files_count > 0);
  std::filesystem::create_directories(directory);
  std::vector<std::filesystem::path> paths;
  paths.reserve(files_count);
  const std::size_t per_file =
      (samples.size() + files_count - 1) / files_count;
  std::size_t cursor = 0;
  for (std::size_t f = 0; f < files_count; ++f) {
    char name[48];
    std::snprintf(name, sizeof(name), "bundle_%05zu.ltfb", f);
    const auto path = directory / name;
    BundleWriter writer(path, schema);
    for (std::size_t i = 0; i < per_file && cursor < samples.size();
         ++i, ++cursor) {
      writer.append(samples[cursor]);
    }
    writer.close();
    paths.push_back(path);
  }
  return paths;
}

}  // namespace ltfb::data
